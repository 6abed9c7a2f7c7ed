package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ava"
	"ava/internal/bytesconv"
	"ava/internal/cl"
	"ava/internal/devsim"
	"ava/internal/failover"
	"ava/internal/guest"
	"ava/internal/rodinia"
	"ava/internal/server"
)

// workload is one set of inputs the benchmark runs. prepare makes the
// seeded inputs and the reference answers, apart from the remoting stack
// and outside the set-up time; setup assembles a stack and the objects the
// passes use.
type workload struct {
	name    string
	prepare func(seed int64) (any, error)
	setup   func(seed int64, ref any) (*instance, error)
}

// instance is one assembled workload: a stack and one lane per guest
// goroutine.
type instance struct {
	stack *ava.Stack
	silo  *cl.Silo
	lanes []*lane
	probe *prober // failover only
}

// lane is one guest goroutine: a VM's client and the pass it repeats. A
// pass that returns an error stopped on a failed operation; check records
// outputs that came back wrong.
type lane struct {
	vm    uint32
	lib   *guest.Lib
	w     *Client
	pass  func() error
	check error
	// Per pass: wall time in ns, and calls and payload bytes per second
	// in thousandths.
	passes, callRate, byteRate hist
}

func (l *lane) fail(err error) {
	if l.check == nil {
		l.check = err
	}
}

func (in *instance) close() { in.stack.Close() }

var workloads = []*workload{
	{name: "rodinia", prepare: prepareRodinia, setup: setupRodinia},
	{name: "callpath", prepare: prepareNone, setup: setupCallpath},
	{name: "bulk", prepare: prepareBulk, setup: setupBulk},
	{name: "failover", prepare: prepareFailover, setup: setupFailover},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// newSilo is the simulated discrete GPU every workload runs on: the same
// launch latency and PCIe DMA model avabench's experiments use, so the
// native path pays realistic device costs too.
func newSilo() *cl.Silo {
	return cl.NewSilo(cl.Config{
		Devices: []devsim.Config{{
			Name:           "bench-gpu",
			MemoryBytes:    2 << 30,
			ComputeUnits:   8,
			KernelOverhead: 8 * time.Microsecond,
			DMALatency:     10 * time.Microsecond,
			DMABandwidth:   12e9,
		}},
	})
}

// newStack compiles the OpenCL specification and assembles a stack over a
// fresh silo on the default in-process transport.
func newStack(opts ...func(*cl.Silo) ava.Option) (*ava.Stack, *cl.Silo) {
	silo := newSilo()
	desc := cl.Descriptor()
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, silo)
	var o []ava.Option
	for _, f := range opts {
		o = append(o, f(silo))
	}
	return ava.NewStack(desc, reg, o...), silo
}

func (in *instance) attach(vm uint32) (*lane, error) {
	lib, err := in.stack.AttachVM(ava.VMConfig{ID: vm, Name: fmt.Sprintf("vm%d", vm)})
	if err != nil {
		return nil, err
	}
	l := &lane{vm: vm, lib: lib, w: newClient(cl.NewRemote(lib))}
	in.lanes = append(in.lanes, l)
	return l, nil
}

func device(silo *cl.Silo) *devsim.Device {
	ds, _ := silo.GetDeviceIDs(silo.GetPlatformIDs()[0], cl.DeviceTypeGPU)
	return ds[0].Sim()
}

// --- rodinia: two VMs, each running the nine benchmarks back to back ---

// rodiniaScale is the problem scale of every Rodinia benchmark.
const rodiniaScale = 1

type rodiniaRef struct {
	sums   map[string]float64
	native time.Duration // one native pass of the nine
}

// nativeRodinia runs the nine benchmarks on cl.NewNative over its own silo:
// the reference checksums and the native pass time.
func nativeRodinia() (*rodiniaRef, error) {
	c := cl.NewNative(newSilo())
	ref := &rodiniaRef{sums: make(map[string]float64)}
	t0 := time.Now()
	for _, b := range rodinia.All() {
		sum, err := b.Run(c, rodiniaScale)
		if err != nil {
			return nil, fmt.Errorf("native %s: %w", b.Name, err)
		}
		ref.sums[b.Name] = sum
	}
	ref.native = time.Since(t0)
	return ref, nil
}

func prepareRodinia(int64) (any, error) { return nativeRodinia() }

// setupRodinia attaches two VMs that run the nine benchmarks in the suite's
// order. Their inputs are the suite's own fixed inputs, so the seed changes
// nothing here: a seeded order would change how the tenants' phases
// overlap, and with it the pass time, from seed to seed.
func setupRodinia(_ int64, refAny any) (*instance, error) {
	ref := refAny.(*rodiniaRef)
	stack, silo := newStack()
	in := &instance{stack: stack, silo: silo}
	all := rodinia.All()
	spans := make([]string, len(all))
	for i, b := range all {
		spans[i] = "rodinia." + b.Name
	}
	for vm := uint32(1); vm <= 2; vm++ {
		l, err := in.attach(vm)
		if err != nil {
			in.close()
			return nil, err
		}
		// The percentiles leave out Finish and blocking transfers: they wait
		// on ms-scale kernels and would pool with µs-scale calls.
		l.w.syncCalls = syncControl
		w := l.w
		l.pass = func() error {
			for i, b := range all {
				prev, id, t0 := w.enter()
				sum, err := b.Run(w, rodiniaScale)
				w.leave(spans[i], prev, id, t0)
				if err != nil {
					return fmt.Errorf("%s: %w", b.Name, err)
				}
				if err := checkChecksum(b.Name, sum, ref.sums[b.Name]); err != nil {
					l.fail(err)
				}
			}
			return nil
		}
	}
	return in, nil
}

// checkChecksum requires a remoted benchmark's checksum to equal the native
// one bit for bit.
func checkChecksum(name string, got, want float64) error {
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("%s checksum %v, native %v", name, got, want)
	}
	return nil
}

// --- callpath: one VM, per-call remoting cost ---

const (
	saxpyN        = 64 // elements; 256 B of float32
	callpathRound = 8  // iterations per pass; the last one reads back
)

func prepareNone(int64) (any, error) { return nil, nil }

func setupCallpath(seed int64, _ any) (*instance, error) {
	stack, silo := newStack()
	in := &instance{stack: stack, silo: silo}
	l, err := in.attach(1)
	if err != nil {
		in.close()
		return nil, err
	}
	w := l.w
	// Integer-valued inputs and alphas keep every float32 result exact, so
	// the model below matches the device bit for bit.
	rng := rand.New(rand.NewSource(seed))
	x := make([]float32, saxpyN)
	y := make([]float32, saxpyN)
	for i := range x {
		x[i] = float32(rng.Intn(17) - 8)
		y[i] = float32(rng.Intn(129) - 64)
	}
	var k, bx, by cl.Ref
	s, err := openSession(w, "saxpy")
	if err == nil {
		k, err = w.CreateKernel(s.prog, "saxpy")
	}
	if err == nil {
		bx, err = w.CreateBuffer(s.ctx, 1, 4*saxpyN)
	}
	if err == nil {
		by, err = w.CreateBuffer(s.ctx, 1, 4*saxpyN)
	}
	if err == nil {
		err = w.EnqueueWrite(s.q, bx, true, 0, bytesconv.Float32Bytes(x))
	}
	if err == nil {
		err = w.EnqueueWrite(s.q, by, true, 0, bytesconv.Float32Bytes(y))
	}
	if err == nil {
		err = w.SetKernelArgBuffer(k, 1, bx)
	}
	if err == nil {
		err = w.SetKernelArgBuffer(k, 2, by)
	}
	if err == nil {
		err = w.SetKernelArgScalar(k, 3, cl.ArgU32(saxpyN))
	}
	if err != nil {
		in.close()
		return nil, err
	}
	alpha := make([]byte, 4)
	global, local := []uint64{saxpyN}, []uint64{saxpyN}
	readBack := make([]byte, 4*saxpyN)
	l.pass = func() error {
		for i := 0; i < callpathRound; i++ {
			a := float32(rng.Intn(3) + 1)
			if rng.Intn(2) == 0 {
				a = -a
			}
			binary.LittleEndian.PutUint32(alpha, math.Float32bits(a))
			if err := w.SetKernelArgScalar(k, 0, alpha); err != nil {
				return err
			}
			if err := w.EnqueueNDRange(s.q, k, global, local); err != nil {
				return err
			}
			for j := range y {
				y[j] = a*x[j] + y[j]
			}
			if err := w.Finish(s.q); err != nil {
				return err
			}
			info, err := w.ContextInfo(s.ctx, cl.ContextNumDevices)
			if err != nil {
				return err
			}
			if len(info) != 8 || binary.LittleEndian.Uint64(info) != 1 {
				l.fail(fmt.Errorf("clGetContextInfo(NUM_DEVICES) = %x, want 1", info))
			}
			if i == callpathRound-1 {
				if err := w.EnqueueRead(s.q, by, true, 0, readBack); err != nil {
					return err
				}
				if err := checkSaxpy(readBack, y); err != nil {
					l.fail(err)
				}
			}
		}
		return nil
	}
	return in, nil
}

// checkSaxpy compares a device read-back with the benchmark's own model.
func checkSaxpy(got []byte, model []float32) error {
	if len(got) != 4*len(model) {
		return fmt.Errorf("saxpy read-back %d bytes, want %d", len(got), 4*len(model))
	}
	for i, want := range model {
		if g := binary.LittleEndian.Uint32(got[4*i:]); g != math.Float32bits(want) {
			return fmt.Errorf("saxpy y[%d] = %v, model %v", i, math.Float32frombits(g), want)
		}
	}
	return nil
}

// session is the context, queue and program a workload keeps for its run.
type session struct {
	ctx, q, prog cl.Ref
}

// openSession creates a context and queue on the GPU, and builds a program
// exposing the named kernels unless kernels is empty.
func openSession(c cl.Client, kernels string) (*session, error) {
	ps, err := c.PlatformIDs()
	if err != nil {
		return nil, err
	}
	ds, err := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	if err != nil {
		return nil, err
	}
	s := &session{}
	if s.ctx, err = c.CreateContext(ds); err != nil {
		return nil, err
	}
	if s.q, err = c.CreateQueue(s.ctx, ds[0], 0); err != nil {
		return nil, err
	}
	if kernels == "" {
		return s, nil
	}
	if s.prog, err = c.CreateProgram(s.ctx, kernels); err != nil {
		return nil, err
	}
	return s, c.BuildProgram(s.prog, "")
}

// --- bulk: one VM, blocking write + read of seeded sizes ---

const (
	bulkBuf    = 4 << 20 // device buffer; the largest transfer fills it
	bulkChunk  = 4 << 10 // smallest transfer
	bulkShifts = 11      // sizes bulkChunk<<k for k in [0,10]
)

// bulkInputs is a seeded byte pool twice the largest transfer; each
// transfer writes a seeded window of it, so consecutive transfers differ.
type bulkInputs struct{ pool []byte }

func prepareBulk(seed int64) (any, error) {
	pool := make([]byte, 2*bulkBuf)
	rand.New(rand.NewSource(seed)).Read(pool)
	return &bulkInputs{pool: pool}, nil
}

func setupBulk(seed int64, refAny any) (*instance, error) {
	pool := refAny.(*bulkInputs).pool
	stack, silo := newStack()
	in := &instance{stack: stack, silo: silo}
	l, err := in.attach(1)
	if err != nil {
		in.close()
		return nil, err
	}
	w := l.w
	var buf cl.Ref
	s, err := openSession(w, "")
	if err == nil {
		buf, err = w.CreateBuffer(s.ctx, 1, bulkBuf)
	}
	if err != nil {
		in.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	dst := make([]byte, bulkBuf)
	// One pass moves every size once, in a seeded order: each pass is the
	// same whole round of transfers, so the size mix never drifts.
	l.pass = func() error {
		for _, k := range rng.Perm(bulkShifts) {
			n := bulkChunk << k
			off := rng.Intn(len(pool) - n + 1)
			src := pool[off : off+n]
			if err := w.EnqueueWrite(s.q, buf, true, 0, src); err != nil {
				return err
			}
			if err := w.EnqueueRead(s.q, buf, true, 0, dst[:n]); err != nil {
				return err
			}
			if err := checkBytes(dst[:n], src); err != nil {
				l.fail(err)
			}
		}
		return nil
	}
	return in, nil
}

// checkBytes requires a read-back to equal, byte for byte, what was written.
func checkBytes(got, want []byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("read back %d bytes, wrote %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("read-back byte %d of %d is %#x, wrote %#x", i, len(want), got[i], want[i])
		}
	}
	return nil
}

// --- failover: gaussian passes under the failover guardian ---

// The guardian shadows every call and cuts a checkpoint every 64 calls,
// but the workload does not kill the API server: recoveries on this stack
// sometimes return wrong results (README, fault 5), and a run that is
// wrong now and then cannot be measured.

func prepareFailover(int64) (any, error) {
	g, _ := rodinia.ByName("gaussian")
	sum, err := g.Run(cl.NewNative(newSilo()), rodiniaScale)
	return sum, err
}

func setupFailover(seed int64, refAny any) (*instance, error) {
	want := refAny.(float64)
	stack, silo := newStack(func(silo *cl.Silo) ava.Option {
		return ava.WithFailover(ava.FailoverConfig{
			Adapter:    cl.MigrationAdapter{Silo: silo},
			Checkpoint: ava.CheckpointConfig{Every: 64},
			Backoff:    failover.BackoffConfig{Seed: seed},
		})
	})
	in := &instance{stack: stack, silo: silo}
	l, err := in.attach(1)
	if err != nil {
		in.close()
		return nil, err
	}
	in.probe = &prober{
		next: uint64(rand.New(rand.NewSource(seed)).Intn(probeEvery)) + 1,
		lib:  l.lib,
		g:    stack.Guardian(1),
	}
	l.w.probe = in.probe
	// The percentiles leave out Finish and blocking transfers, as on
	// rodinia: they wait on kernels and on the checkpoints cut at them.
	l.w.syncCalls = syncControl
	g, _ := rodinia.ByName("gaussian")
	l.pass = func() error {
		sum, err := g.Run(l.w, rodiniaScale)
		if err != nil {
			return err
		}
		if err := checkChecksum("gaussian", sum, want); err != nil {
			l.fail(err)
		}
		return nil
	}
	return in, nil
}
