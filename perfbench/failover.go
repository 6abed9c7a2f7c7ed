package main

import (
	"ava/internal/failover"
	"ava/internal/guest"
)

// probeEvery is the spacing, in kernel-argument and launch calls, of the
// failover workload's watermark probes. Probes are placed by call index,
// so a seed probes at the same points of the call stream on every run. A
// pass makes 3,509 such calls, so the probes drift through the pass from
// one pass to the next and every run sees them land all over it.
const probeEvery = 500

// prober is the failover workload's watermark probe. Once armed, it reads
// after the next-th kernel-argument or launch call, and every probeEvery
// calls after that, how many guest calls the guardian's last checkpoint
// is behind: the calls a recovery at that point would have to redo.
type prober struct {
	n, next uint64
	armed   bool
	lib     *guest.Lib
	g       *failover.Guardian
	lag     hist // guest calls issued − LastWatermark, one sample per probe
}

func (p *prober) due() bool {
	if !p.armed {
		return false
	}
	p.n++
	if p.n != p.next {
		return false
	}
	p.next += probeEvery
	return true
}

func (p *prober) read() {
	if calls, w := p.lib.Stats().Calls, p.g.Stats().LastWatermark; calls > w {
		p.lag.add(calls - w)
	} else {
		p.lag.add(0)
	}
}
