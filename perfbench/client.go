package main

import (
	"time"

	"ava/internal/cl"
)

// fn identifies one cl.Client method by the OpenCL function it forwards.
type fn uint8

const (
	fPlatformIDs fn = iota
	fPlatformInfo
	fDeviceIDs
	fDeviceInfo
	fCreateContext
	fReleaseContext
	fContextInfo
	fCreateQueue
	fReleaseQueue
	fCreateBuffer
	fReleaseBuffer
	fCreateProgram
	fBuildProgram
	fProgramBuildLog
	fReleaseProgram
	fCreateKernel
	fReleaseKernel
	fSetKernelArg
	fNDRange
	fRead
	fWrite
	fCopy
	fFill
	fMarker
	fBarrier
	fFinish
	fFlush
	fWaitForEvents
	fEventProfiling
	fReleaseEvent
	numFn
)

var fnNames = [numFn]string{
	"clGetPlatformIDs", "clGetPlatformInfo", "clGetDeviceIDs", "clGetDeviceInfo",
	"clCreateContext", "clReleaseContext", "clGetContextInfo",
	"clCreateCommandQueue", "clReleaseCommandQueue",
	"clCreateBuffer", "clReleaseMemObject",
	"clCreateProgramWithSource", "clBuildProgram", "clGetProgramBuildInfo", "clReleaseProgram",
	"clCreateKernel", "clReleaseKernel", "clSetKernelArg",
	"clEnqueueNDRangeKernel", "clEnqueueReadBuffer", "clEnqueueWriteBuffer",
	"clEnqueueCopyBuffer", "clEnqueueFillBuffer", "clEnqueueMarker", "clEnqueueBarrier",
	"clFinish", "clFlush", "clWaitForEvents", "clGetEventProfilingInfo", "clReleaseEvent",
}

// spanNames are the span names of the calls, built once so recording a
// span allocates nothing.
var spanNames = func() (out [numFn]string) {
	for i, n := range fnNames {
		out[i] = "call." + n
	}
	return out
}()

// waitsOnDevice marks the blocking calls whose latency includes waiting
// for queued device work (kernels, DMA) rather than only the remoting path.
var waitsOnDevice = [numFn]bool{fFinish: true, fRead: true, fWrite: true, fWaitForEvents: true}

// syncSet selects the blocking calls a workload's sync percentiles cover.
type syncSet uint8

const (
	syncAll     syncSet = iota // every blocking call
	syncControl                // blocking calls that do not wait on device work
)

func (s syncSet) counts(f fn) bool {
	return s == syncAll || (s == syncControl && !waitsOnDevice[f])
}

// Client wraps the cl.Client a workload drives. It counts every operation
// attempted and failed, the payload bytes handed in, times the blocking
// calls, records a span per call when tracing, and carries the failover
// workload's watermark probe. One Client serves one guest goroutine.
type Client struct {
	c cl.Client

	calls, failed uint64
	bytes         uint64 // H2D+D2H payload bytes of EnqueueWrite/EnqueueRead
	// sync holds the latency in ns of each blocking call in syncCalls:
	// the samples of the workload's sync percentiles.
	sync      hist
	syncCalls syncSet

	tr           *tracer // nil when the run is not traced
	pass, parent uint64
	probe        *prober
}

func newClient(c cl.Client) *Client { return &Client{c: c} }

// start reads the clock when the call will need it: always for blocking
// calls, and for every call while tracing.
func (w *Client) start(sync bool) time.Time {
	if sync || w.tr != nil {
		return time.Now()
	}
	return time.Time{}
}

func (w *Client) done(f fn, sync bool, t0 time.Time, err error) {
	w.calls++
	if err != nil {
		w.failed++
	}
	if !sync && w.tr == nil {
		return
	}
	t1 := time.Now()
	if sync && w.syncCalls.counts(f) {
		w.sync.add(uint64(t1.Sub(t0)))
	}
	if w.tr != nil {
		w.tr.add(w.tr.newID(), w.parent, w.pass, spanNames[f], t0, t1)
	}
}

// enter opens a span that parents the calls made until leave; it returns
// the previous parent for leave to restore. Untraced, it does nothing.
func (w *Client) enter() (prev, id uint64, t0 time.Time) {
	if w.tr == nil {
		return 0, 0, time.Time{}
	}
	prev, id = w.parent, w.tr.newID()
	w.parent = id
	return prev, id, time.Now()
}

func (w *Client) leave(name string, prev, id uint64, t0 time.Time) {
	if w.tr == nil {
		return
	}
	w.parent = prev
	w.tr.add(id, prev, w.pass, name, t0, time.Now())
}

// beginPass starts a pass: its span becomes the parent of the pass's calls
// and its identifier tags them.
func (w *Client) beginPass() time.Time {
	if w.tr != nil {
		w.pass = w.tr.newID()
		w.parent = w.pass
	}
	return time.Now()
}

func (w *Client) endPass(name string, t0, t1 time.Time) {
	if w.tr != nil {
		w.tr.add(w.pass, 0, w.pass, name, t0, t1)
		w.pass, w.parent = 0, 0
	}
}

// argOrLaunch counts a kernel-argument or launch call toward the probe.
func (w *Client) argOrLaunch() {
	if p := w.probe; p != nil && p.due() {
		p.read()
	}
}

func (w *Client) PlatformIDs() ([]cl.Ref, error) {
	t := w.start(true)
	r, err := w.c.PlatformIDs()
	w.done(fPlatformIDs, true, t, err)
	return r, err
}

func (w *Client) PlatformInfo(p cl.Ref, param uint32) ([]byte, error) {
	t := w.start(true)
	r, err := w.c.PlatformInfo(p, param)
	w.done(fPlatformInfo, true, t, err)
	return r, err
}

func (w *Client) DeviceIDs(p cl.Ref, devType uint64) ([]cl.Ref, error) {
	t := w.start(true)
	r, err := w.c.DeviceIDs(p, devType)
	w.done(fDeviceIDs, true, t, err)
	return r, err
}

func (w *Client) DeviceInfo(d cl.Ref, param uint32) ([]byte, error) {
	t := w.start(true)
	r, err := w.c.DeviceInfo(d, param)
	w.done(fDeviceInfo, true, t, err)
	return r, err
}

func (w *Client) CreateContext(devs []cl.Ref) (cl.Ref, error) {
	t := w.start(true)
	r, err := w.c.CreateContext(devs)
	w.done(fCreateContext, true, t, err)
	return r, err
}

func (w *Client) ReleaseContext(c cl.Ref) error {
	t := w.start(true)
	err := w.c.ReleaseContext(c)
	w.done(fReleaseContext, true, t, err)
	return err
}

func (w *Client) ContextInfo(c cl.Ref, param uint32) ([]byte, error) {
	t := w.start(true)
	r, err := w.c.ContextInfo(c, param)
	w.done(fContextInfo, true, t, err)
	return r, err
}

func (w *Client) CreateQueue(c, d cl.Ref, properties uint64) (cl.Ref, error) {
	t := w.start(true)
	r, err := w.c.CreateQueue(c, d, properties)
	w.done(fCreateQueue, true, t, err)
	return r, err
}

func (w *Client) ReleaseQueue(q cl.Ref) error {
	t := w.start(true)
	err := w.c.ReleaseQueue(q)
	w.done(fReleaseQueue, true, t, err)
	return err
}

func (w *Client) CreateBuffer(c cl.Ref, flags uint64, size uint64) (cl.Ref, error) {
	t := w.start(true)
	r, err := w.c.CreateBuffer(c, flags, size)
	w.done(fCreateBuffer, true, t, err)
	return r, err
}

func (w *Client) ReleaseBuffer(m cl.Ref) error {
	t := w.start(true)
	err := w.c.ReleaseBuffer(m)
	w.done(fReleaseBuffer, true, t, err)
	return err
}

func (w *Client) CreateProgram(c cl.Ref, source string) (cl.Ref, error) {
	t := w.start(true)
	r, err := w.c.CreateProgram(c, source)
	w.done(fCreateProgram, true, t, err)
	return r, err
}

func (w *Client) BuildProgram(p cl.Ref, options string) error {
	t := w.start(true)
	err := w.c.BuildProgram(p, options)
	w.done(fBuildProgram, true, t, err)
	return err
}

func (w *Client) ProgramBuildLog(p cl.Ref) (string, error) {
	t := w.start(true)
	r, err := w.c.ProgramBuildLog(p)
	w.done(fProgramBuildLog, true, t, err)
	return r, err
}

func (w *Client) ReleaseProgram(p cl.Ref) error {
	t := w.start(true)
	err := w.c.ReleaseProgram(p)
	w.done(fReleaseProgram, true, t, err)
	return err
}

func (w *Client) CreateKernel(p cl.Ref, name string) (cl.Ref, error) {
	t := w.start(true)
	r, err := w.c.CreateKernel(p, name)
	w.done(fCreateKernel, true, t, err)
	return r, err
}

func (w *Client) ReleaseKernel(k cl.Ref) error {
	t := w.start(true)
	err := w.c.ReleaseKernel(k)
	w.done(fReleaseKernel, true, t, err)
	return err
}

func (w *Client) SetKernelArgBuffer(k cl.Ref, index uint32, m cl.Ref) error {
	t := w.start(false)
	err := w.c.SetKernelArgBuffer(k, index, m)
	w.done(fSetKernelArg, false, t, err)
	w.argOrLaunch()
	return err
}

func (w *Client) SetKernelArgScalar(k cl.Ref, index uint32, val []byte) error {
	t := w.start(false)
	err := w.c.SetKernelArgScalar(k, index, val)
	w.done(fSetKernelArg, false, t, err)
	w.argOrLaunch()
	return err
}

func (w *Client) EnqueueNDRange(q, k cl.Ref, global, local []uint64) error {
	t := w.start(false)
	err := w.c.EnqueueNDRange(q, k, global, local)
	w.done(fNDRange, false, t, err)
	w.argOrLaunch()
	return err
}

func (w *Client) EnqueueNDRangeEvent(q, k cl.Ref, global, local []uint64) (cl.Ref, error) {
	t := w.start(false)
	r, err := w.c.EnqueueNDRangeEvent(q, k, global, local)
	w.done(fNDRange, false, t, err)
	w.argOrLaunch()
	return r, err
}

func (w *Client) EnqueueRead(q, m cl.Ref, blocking bool, offset uint64, dst []byte) error {
	t := w.start(blocking)
	err := w.c.EnqueueRead(q, m, blocking, offset, dst)
	w.done(fRead, blocking, t, err)
	w.bytes += uint64(len(dst))
	return err
}

func (w *Client) EnqueueWrite(q, m cl.Ref, blocking bool, offset uint64, src []byte) error {
	t := w.start(blocking)
	err := w.c.EnqueueWrite(q, m, blocking, offset, src)
	w.done(fWrite, blocking, t, err)
	w.bytes += uint64(len(src))
	return err
}

func (w *Client) EnqueueCopy(q, src, dst cl.Ref, srcOff, dstOff, size uint64) error {
	t := w.start(false)
	err := w.c.EnqueueCopy(q, src, dst, srcOff, dstOff, size)
	w.done(fCopy, false, t, err)
	return err
}

func (w *Client) EnqueueFill(q, m cl.Ref, pattern []byte, offset, size uint64) error {
	t := w.start(false)
	err := w.c.EnqueueFill(q, m, pattern, offset, size)
	w.done(fFill, false, t, err)
	return err
}

func (w *Client) EnqueueMarker(q cl.Ref) (cl.Ref, error) {
	t := w.start(true)
	r, err := w.c.EnqueueMarker(q)
	w.done(fMarker, true, t, err)
	return r, err
}

func (w *Client) EnqueueBarrier(q cl.Ref) error {
	t := w.start(true)
	err := w.c.EnqueueBarrier(q)
	w.done(fBarrier, true, t, err)
	return err
}

func (w *Client) Finish(q cl.Ref) error {
	t := w.start(true)
	err := w.c.Finish(q)
	w.done(fFinish, true, t, err)
	return err
}

func (w *Client) Flush(q cl.Ref) error {
	t := w.start(false)
	err := w.c.Flush(q)
	w.done(fFlush, false, t, err)
	return err
}

func (w *Client) WaitForEvents(events []cl.Ref) error {
	t := w.start(true)
	err := w.c.WaitForEvents(events)
	w.done(fWaitForEvents, true, t, err)
	return err
}

func (w *Client) EventProfiling(e cl.Ref, param uint32) (uint64, error) {
	t := w.start(true)
	r, err := w.c.EventProfiling(e, param)
	w.done(fEventProfiling, true, t, err)
	return r, err
}

func (w *Client) ReleaseEvent(e cl.Ref) error {
	t := w.start(true)
	err := w.c.ReleaseEvent(e)
	w.done(fReleaseEvent, true, t, err)
	return err
}

// DeferredError is a local query, not an API call: it is not counted as an
// operation, but a deferred failure counts as one failed operation (the
// asynchronous call it reports was counted when it was made).
func (w *Client) DeferredError() error {
	err := w.c.DeferredError()
	if err != nil {
		w.failed++
	}
	return err
}

var _ cl.Client = (*Client)(nil)
