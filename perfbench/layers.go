package main

import (
	"testing"
	"time"

	"ava/internal/cava"
	"ava/internal/cl"
	"ava/internal/guest"
	"ava/internal/marshal"
	"ava/internal/spec"
	"ava/internal/transport"
)

// snapshot is every layer's cumulative counters at one instant, read
// through each layer's public Stats accessor and summed over the VMs;
// lastCkptBytes is a level, not a count.
type snapshot struct {
	guest         guest.Stats   // the fields addGuest sums
	stall         time.Duration // router: rate-limited or unscheduled time
	srvExec       time.Duration // server: handler time
	srvCopied     uint64
	kernelTime    time.Duration // device
	dmaTime       time.Duration
	kernels       uint64
	recoveries    uint64 // guardian
	checkpoints   uint64
	lastCkptBytes uint64
}

func (s *snapshot) addGuest(o guest.Stats) {
	s.guest.Calls += o.Calls
	s.guest.Batches += o.Batches
	s.guest.BytesCopied += o.BytesCopied
	s.guest.BytesBorrowed += o.BytesBorrowed
	s.guest.ResubmittedCalls += o.ResubmittedCalls
	s.guest.RetryableFailed += o.RetryableFailed
	s.guest.RetainDropped += o.RetainDropped
	s.guest.StagedCalls += o.StagedCalls
	s.guest.StageEncodeToAdmit += o.StageEncodeToAdmit
	s.guest.StageAdmitToDispatch += o.StageAdmitToDispatch
	s.guest.StageExec += o.StageExec
	s.guest.StageReply += o.StageReply
}

func (in *instance) snapshot() snapshot {
	var s snapshot
	for _, l := range in.lanes {
		s.addGuest(l.lib.Stats())
		if rs, err := in.stack.Router.Stats(l.vm); err == nil {
			s.stall += rs.Stall
		}
		cs := in.stack.Context(l.vm).Stats()
		s.srvExec += cs.ExecTime
		s.srvCopied += cs.BytesCopied
		if g := in.stack.Guardian(l.vm); g != nil {
			gs := g.Stats()
			s.recoveries += gs.Recoveries
			s.checkpoints += gs.Checkpoints
			s.lastCkptBytes = gs.LastCkptBytes
		}
	}
	ds := device(in.silo).Stats()
	s.kernelTime, s.dmaTime, s.kernels = ds.KernelTime, ds.TransferTime, ds.KernelsRun
	return s
}

// micro times fn over n calls, five times, and returns the median time per
// call. The layer microbenchmarks run after the workload's stack is closed,
// so nothing else competes for the processors.
func micro(n int, fn func()) time.Duration {
	var per []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return time.Duration(median(per))
}

// compileTime times spec.Parse and cava.Compile of the OpenCL specification.
func compileTime() (time.Duration, error) {
	var err error
	d := micro(4, func() {
		api, perr := spec.Parse(cl.Spec)
		if perr == nil {
			_, perr = cava.Compile(api)
		}
		if perr != nil {
			err = perr
		}
	})
	return d, err
}

// marshalCosts times marshal.EncodeCall and DecodeCall on the two small
// calls of the callpath workload (clFinish, clSetKernelArg) and on a 1 MiB
// clEnqueueWriteBuffer, and counts allocations per small encode+decode.
type marshalCosts struct {
	encSmall, decSmall, enc1M, dec1M time.Duration
	allocsSmall                      float64
}

func measureMarshal(desc *cava.Descriptor) marshalCosts {
	id := func(name string) uint32 {
		fd, _ := desc.Lookup(name)
		return fd.ID
	}
	small := []*marshal.Call{
		{Seq: 1, VM: 1, Func: id("clFinish"), Args: []marshal.Value{marshal.HandleVal(3)}},
		{Seq: 2, VM: 1, Func: id("clSetKernelArg"), Flags: marshal.FlagAsync, Args: []marshal.Value{
			marshal.HandleVal(7), marshal.Uint(0), marshal.Uint(4), marshal.BytesVal([]byte{0, 0, 128, 63}),
		}},
	}
	big := &marshal.Call{Seq: 3, VM: 1, Func: id("clEnqueueWriteBuffer"), Args: []marshal.Value{
		marshal.HandleVal(3), marshal.HandleVal(9), marshal.Uint(1), marshal.Uint(0), marshal.Uint(mib),
		marshal.BytesVal(make([]byte, mib)), marshal.Uint(0), marshal.Null(), marshal.Null(),
	}}
	encSmall := [][]byte{marshal.EncodeCall(small[0]), marshal.EncodeCall(small[1])}
	encBig := marshal.EncodeCall(big)

	var c marshalCosts
	i := 0
	c.encSmall = micro(20000, func() { marshal.EncodeCall(small[i&1]); i++ })
	c.decSmall = micro(20000, func() { marshal.DecodeCall(encSmall[i&1]); i++ })
	c.enc1M = micro(32, func() { marshal.EncodeCall(big) })
	c.dec1M = micro(32, func() { marshal.DecodeCall(encBig) })
	c.allocsSmall = testing.AllocsPerRun(2000, func() {
		for _, call := range small {
			marshal.DecodeCall(marshal.EncodeCall(call))
		}
	}) / float64(len(small))
	return c
}

// transportRTT times an echo round trip of a size-byte frame over a
// transport.NewInProc pair.
func transportRTT(size, n int) time.Duration {
	a, b := transport.NewInProc()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			f, err := b.Recv()
			if err != nil {
				return
			}
			if b.Send(f) != nil {
				return
			}
		}
	}()
	frame := make([]byte, size)
	d := micro(n, func() {
		if a.Send(frame) == nil {
			frame, _ = a.Recv()
		}
	})
	a.Close()
	b.Close()
	<-done
	return d
}
