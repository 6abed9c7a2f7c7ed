// Command perfbench is the repository benchmark: it runs one workload on
// the AvA OpenCL stack for a fixed time, checks every output against a
// computation made apart from the remoting stack, and prints one JSON
// result line. With -trace 1 it prints per-layer metrics from a traced
// run instead of the end-to-end metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"ava/internal/cl"
)

// A run sets the workload up at least minSetups times, and goes on until
// it has spent setupBudget on set-ups or reached maxSetups; setup_s is the
// median, and the last set-up is the one measured. Cheap set-ups repeat
// more, so that their median is as steady as that of slow ones.
const (
	minSetups   = 3
	maxSetups   = 50
	setupBudget = time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: rodinia, callpath, bulk or failover")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes its spans")
	flag.Parse()
	wl, err := workloadByName(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(wl *workload, seed int64, dur time.Duration, traced bool, traceDir string) (*result, error) {
	ref, err := wl.prepare(seed)
	if err != nil {
		return nil, fmt.Errorf("%s reference: %w", wl.name, err)
	}
	passName := "pass." + wl.name
	var setups []float64
	var in *instance
	var spent time.Duration
	for i := 0; i < minSetups || (spent < setupBudget && i < maxSetups); i++ {
		if in != nil {
			in.close()
		}
		t0 := time.Now()
		if in, err = wl.setup(seed, ref); err != nil {
			return nil, fmt.Errorf("%s setup: %w", wl.name, err)
		}
		// The warm-up pass is part of set-up: it fills caches and pools
		// and lets lazy initialisation finish before anything is timed.
		errs := runLanes(in, passName, time.Now())
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
		if len(errs) > 0 {
			in.close()
			return nil, fmt.Errorf("%s warm-up: %w", wl.name, errs[0])
		}
	}
	setup := median(setups)
	if in.probe != nil {
		in.probe.armed = true
	}
	res := &result{Correct: true, Metrics: make(map[string]metric)}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	var p *phase
	if !traced {
		p = measure(in, passName, dur, nil)
		in.close()
		if err := endToEnd(p, setup, put); err != nil {
			p.check = append(p.check, err)
		}
	} else {
		plain := measure(in, passName, dur/2, nil)
		before := in.snapshot()
		tracers := make([]*tracer, len(in.lanes))
		epoch := time.Now()
		for i := range tracers {
			tracers[i] = newTracer(epoch, i+1)
		}
		p = measure(in, passName, dur/2, tracers)
		after := in.snapshot()
		in.close()
		p.check = append(p.check, plain.check...)
		p.errs = append(p.errs, plain.errs...)
		p.calls += plain.calls
		p.failed += plain.failed
		if err := perLayer(p, plain, before, after, tracers, put); err != nil {
			return nil, err
		}
		if err := writeSpans(filepath.Join(traceDir, wl.name+".tsv"), tracers); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	res.Attempted, res.Failed = p.calls, p.failed
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	for _, err := range p.check {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
		res.Correct = false
	}
	// A failed operation cuts its phase short, so the metrics do not
	// describe a whole run: the result is not correct.
	for _, err := range p.errs {
		fmt.Fprintln(os.Stderr, "perfbench: operation failed, phase cut short:", err)
		res.Correct = false
	}
	return res, nil
}

// phase is what one measured stretch of passes did.
type phase struct {
	passes   hist // pass wall times of every lane, ns
	sync     hist // blocking-call latencies of every lane, ns
	callRate float64
	byteRate float64
	calls    uint64
	failed   uint64
	mallocs  uint64
	gcs      uint64
	gcPause  time.Duration
	heapPeak float64
	lag      hist // failover: watermark lag at each probe, calls
	errs     []error
	check    []error
}

// runLanes runs rounds of passes until a round ends at or after deadline,
// and returns the errors that stopped it. In a round every lane runs one
// pass in its own goroutine, as a guest application thread. The lanes start
// each round together: left to drift, the tenants' relative phase would be
// set by start-up timing and would move the pass time from run to run.
// Every pass runs whole, so every run attempts whole rounds.
func runLanes(in *instance, passName string, deadline time.Time) []error {
	errs := make([]error, len(in.lanes))
	for {
		if len(in.lanes) == 1 {
			errs[0] = runPass(in.lanes[0], passName)
		} else {
			var wg sync.WaitGroup
			for i, l := range in.lanes {
				wg.Add(1)
				go func(i int, l *lane) {
					defer wg.Done()
					errs[i] = runPass(l, passName)
				}(i, l)
			}
			wg.Wait()
		}
		var out []error
		for _, err := range errs {
			if err != nil {
				out = append(out, err)
			}
		}
		if len(out) > 0 || !time.Now().Before(deadline) {
			return out
		}
	}
}

// runPass runs one pass of a lane and records its time and rates.
func runPass(l *lane, passName string) error {
	calls, bytes := l.w.calls, l.w.bytes
	t0 := l.w.beginPass()
	err := l.pass()
	t1 := time.Now()
	l.w.endPass(passName, t0, t1)
	if err == nil {
		err = l.w.DeferredError()
	}
	if err != nil {
		return fmt.Errorf("vm%d: %w", l.vm, err)
	}
	d := t1.Sub(t0)
	l.passes.add(uint64(d))
	// Rates in thousandths per second keep the histogram's integer
	// resolution well below the spread of the figures.
	l.callRate.add(uint64(1e3 * float64(l.w.calls-calls) / d.Seconds()))
	l.byteRate.add(uint64(1e3 * float64(l.w.bytes-bytes) / d.Seconds()))
	return nil
}

// measure runs passes for dur and collects the end-to-end observations.
// Untraced when tracers is nil.
func measure(in *instance, passName string, dur time.Duration, tracers []*tracer) *phase {
	for i, l := range in.lanes {
		l.passes, l.callRate, l.byteRate = hist{}, hist{}, hist{}
		l.w.calls, l.w.failed, l.w.bytes, l.w.sync = 0, 0, 0, hist{}
		l.w.tr = nil
		if tracers != nil {
			l.w.tr = tracers[i]
		}
		l.check = nil
	}
	if in.probe != nil {
		in.probe.lag = hist{}
	}
	before := in.snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stop, sampled := make(chan struct{}), make(chan float64)
	dev := device(in.silo)
	go sampleHeap(stop, sampled, func() uint64 { return dev.Stats().CurrentMemUse })

	errs := runLanes(in, passName, time.Now().Add(dur))

	close(stop)
	peak := <-sampled
	runtime.ReadMemStats(&ms1)
	after := in.snapshot()

	p := &phase{
		errs:     errs,
		mallocs:  ms1.Mallocs - ms0.Mallocs,
		gcs:      uint64(ms1.NumGC - ms0.NumGC),
		gcPause:  time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs),
		heapPeak: peak,
	}
	for _, l := range in.lanes {
		p.passes.merge(&l.passes)
		p.sync.merge(&l.w.sync)
		// Lanes run at the same time, so their rates add up. Each lane's
		// rate is the median over its passes, so that the host machine
		// stalling the process for a moment in one pass does not move it.
		p.callRate += l.callRate.median() / 1e3
		p.byteRate += l.byteRate.median() / 1e3
		p.calls += l.w.calls
		p.failed += l.w.failed
		if l.check != nil {
			p.check = append(p.check, fmt.Errorf("vm%d: %w", l.vm, l.check))
		}
	}
	// A call the guest gave up on without an error return still failed.
	p.failed += (after.guest.RetryableFailed - before.guest.RetryableFailed) +
		(after.guest.RetainDropped - before.guest.RetainDropped)
	// Nothing kills the server, so a recovery means the guardian took a
	// live server for dead and replayed state into a new one.
	if n := after.recoveries - before.recoveries; n != 0 {
		p.check = append(p.check, fmt.Errorf("%d recoveries without a kill", n))
	}
	if in.probe != nil {
		p.lag = in.probe.lag
	}
	return p
}

// heapQuantile is the share of the measured phase the live heap stays at
// or below the figure heap_peak_mib reports. The live heap changes only when
// a collection ends, every few tens of milliseconds, and its very largest
// value depends on what happened to sit in a pool at that moment; a high
// quantile of the samples is the peak without that accident.
const heapQuantile = 0.95

// sampleHeap samples, every millisecond until stop closes, the Go heap the
// last garbage collection found live, less the simulated device's memory
// (the silo keeps device buffers on the Go heap; on real hardware they live
// on the accelerator), and then sends the heapQuantile of the samples. Live
// bytes rather than bytes allocated so far, so the figure follows what the
// stack retains rather than when the collector happened to run.
func sampleHeap(stop <-chan struct{}, result chan<- float64, deviceMem func() uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var h hist
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if v, d := s[0].Value.Uint64(), deviceMem(); v > d {
			h.add(v - d)
		}
		select {
		case <-stop:
			q, _ := h.quantile(heapQuantile)
			result <- q
			return
		case <-tick.C:
		}
	}
}

// endToEnd derives the end-to-end metrics of an untraced phase.
func endToEnd(p *phase, setup float64, put func(name, unit string, v float64)) error {
	p50, ok50 := p.sync.quantile(0.5)
	p90, ok90 := p.sync.quantile(0.9)
	put("setup_s", "s", setup)
	put("pass_ms", "ms", p.passes.median()/1e6)
	put("calls_per_s", "1/s", p.callRate)
	put("sync_p50_us", "us", p50/1e3)
	put("sync_p90_us", "us", p90/1e3)
	put("mib_per_s", "MiB/s", p.byteRate/mib)
	put("heap_peak_mib", "MiB", p.heapPeak/mib)
	put("allocs_per_call", "count", ratio(float64(p.mallocs), float64(p.calls)))
	if !ok50 || !ok90 {
		return fmt.Errorf("%d blocking calls: fewer than %d beyond p90", p.sync.n, minTail)
	}
	return nil
}

// callMetrics are the functions whose median span self time the traced run
// reports: the calls that dominate at least one workload.
var callMetrics = []fn{fSetKernelArg, fNDRange, fFinish, fContextInfo, fRead, fWrite}

// perLayer derives the per-layer metrics of a traced phase. The counters
// are deltas over the traced phase, per pass where the name says so.
func perLayer(p, plain *phase, before, after snapshot, tracers []*tracer,
	put func(name, unit string, v float64)) error {
	passes := float64(p.passes.n)
	g0, g1 := before.guest, after.guest
	staged := float64(g1.StagedCalls - g0.StagedCalls)
	perStaged := func(a, b time.Duration) float64 { return ratio(us(b-a), staged) }

	compile, err := compileTime()
	if err != nil {
		return fmt.Errorf("compiling the OpenCL spec: %w", err)
	}
	put("cava.compile_ms", "ms", ms(compile))
	put("guest.encode_to_admit_us", "us", perStaged(g0.StageEncodeToAdmit, g1.StageEncodeToAdmit))
	put("guest.reply_us", "us", perStaged(g0.StageReply, g1.StageReply))
	put("guest.calls_per_frame", "count", ratio(float64(g1.Calls-g0.Calls), float64(g1.Batches-g0.Batches)))
	put("guest.copied_mib", "MiB", ratio(float64(g1.BytesCopied-g0.BytesCopied)/mib, passes))
	put("guest.borrowed_mib", "MiB", ratio(float64(g1.BytesBorrowed-g0.BytesBorrowed)/mib, passes))
	put("hv.admit_to_dispatch_us", "us", perStaged(g0.StageAdmitToDispatch, g1.StageAdmitToDispatch))
	put("hv.stall_ms", "ms", ratio(ms(after.stall-before.stall), passes))
	put("server.exec_us", "us", perStaged(g0.StageExec, g1.StageExec))
	put("server.exec_ms", "ms", ratio(ms(after.srvExec-before.srvExec), passes))
	put("server.copied_mib", "MiB", ratio(float64(after.srvCopied-before.srvCopied)/mib, passes))
	put("devsim.kernel_ms", "ms", ratio(ms(after.kernelTime-before.kernelTime), passes))
	put("devsim.dma_ms", "ms", ratio(ms(after.dmaTime-before.dmaTime), passes))
	put("devsim.kernels", "count", ratio(float64(after.kernels-before.kernels), passes))
	put("runtime.gc_cycles", "count", ratio(float64(p.gcs), passes))
	put("runtime.gc_pause_ms", "ms", ratio(ms(p.gcPause), passes))

	put("failover.watermark_lag_calls", "count", p.lag.median())
	put("failover.checkpoints_per_pass", "count", ratio(float64(after.checkpoints-before.checkpoints), passes))
	put("failover.ckpt_kib", "KiB", float64(after.lastCkptBytes)/1024)

	self := selfTimes(tracers)
	for _, f := range callMetrics {
		put("call."+fnNames[f]+"_us", "us", median(self[spanNames[f]]))
	}
	put("trace.overhead_pct", "%", 100*(ratio(p.passes.median(), plain.passes.median())-1))

	// Layer microbenchmarks, on a quiet process once the stack is closed.
	mc := measureMarshal(cl.Descriptor())
	put("marshal.encode_small_ns", "ns", float64(mc.encSmall))
	put("marshal.decode_small_ns", "ns", float64(mc.decSmall))
	put("marshal.encode_1mib_us", "us", us(mc.enc1M))
	put("marshal.decode_1mib_us", "us", us(mc.dec1M))
	put("marshal.allocs_small", "count", mc.allocsSmall)
	put("transport.inproc_rtt_us", "us", us(transportRTT(64, 20000)))
	put("transport.inproc_1mib_us", "us", us(transportRTT(mib, 200)))
	var native []float64
	for i := 0; i < 3; i++ {
		ref, err := nativeRodinia()
		if err != nil {
			return err
		}
		native = append(native, ms(ref.native))
	}
	put("rodinia.native_pass_ms", "ms", median(native))
	return nil
}
