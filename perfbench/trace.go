package main

// Outside-in tracing: every layer is timed from the benchmark's own code,
// around calls into the layer's public API. The target, sink and shard
// transport are wrapped; store, database and analysis calls are timed
// where the benchmark makes them. Untraced runs keep only the two stamps
// the end-to-end metrics need (an experiment's first InitTestCard and
// the return of its LogExperiment), so their overhead stays negligible.

import (
	"context"
	"sync"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/shard"
)

// recorder collects one campaign's spans and stamps. It is shared by
// every board goroutine of the campaign.
type recorder struct {
	traced bool

	mu      sync.Mutex
	samples map[string][]time.Duration
	// fiBusy sums the spans that ended after the first injected
	// experiment started: the layer busy time of the fault-injection
	// phase, against which core.residual_frac is computed.
	fiBusy        time.Duration
	started       map[string]time.Time
	latencies     []time.Duration
	firstInjected time.Time
	firstRange    time.Time
	calls         int64
	callErrors    int64
}

func newRecorder(traced bool) *recorder {
	return &recorder{
		traced:  traced,
		samples: make(map[string][]time.Duration),
		started: make(map[string]time.Time),
	}
}

// span records one timed call of the named layer function. busy says
// whether the call runs on a board's critical path and so counts
// towards the layer sum of the fault-injection phase.
func (r *recorder) span(name string, d time.Duration, busy bool) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], d)
	if busy && !r.firstInjected.IsZero() {
		r.fiBusy += d
	}
	r.mu.Unlock()
}

// timed runs fn and records it as a span when tracing.
func (r *recorder) timed(name string, busy bool, fn func() error) error {
	if !r.traced {
		return fn()
	}
	start := time.Now()
	err := fn()
	r.span(name, time.Since(start), busy)
	return err
}

// experimentStarted stamps the first InitTestCard of a fault injection
// experiment. The reference run is not an experiment.
func (r *recorder) experimentStarted(ex *core.Experiment, at time.Time) {
	if ex.IsReference() {
		return
	}
	r.mu.Lock()
	if _, ok := r.started[ex.Name]; !ok {
		r.started[ex.Name] = at
	}
	if r.firstInjected.IsZero() {
		r.firstInjected = at
	}
	r.mu.Unlock()
}

// experimentLogged closes an experiment's latency at the return of its
// LogExperiment call.
func (r *recorder) experimentLogged(name string, at time.Time) {
	r.mu.Lock()
	if start, ok := r.started[name]; ok {
		r.latencies = append(r.latencies, at.Sub(start))
		delete(r.started, name)
	}
	r.mu.Unlock()
}

func (r *recorder) firstInjectedAt() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.firstInjected
}

// Target method metric suffixes, in the order of the SCIFI algorithm.
const (
	mInitTestCard = iota
	mLoadWorkload
	mWriteMemory
	mRunWorkload
	mWaitForBreakpoint
	mReadScanChain
	mInjectFault
	mWriteScanChain
	mWaitForTermination
	mReadMemory
	numMethods
)

var methodMetric = [numMethods]string{
	"init_test_card_us", "load_workload_us", "write_memory_us", "run_workload_us",
	"wait_for_breakpoint_us", "read_scan_chain_us", "inject_fault_us",
	"write_scan_chain_us", "wait_for_termination_us", "read_memory_us",
}

// timedTarget times every core.TargetSystem method of the wrapped
// target under "<layer>.<method>_us".
type timedTarget struct {
	inner core.TargetSystem
	rec   *recorder
	names [numMethods]string
}

func (t *timedTarget) call(m int, fn func(*core.Experiment) error, ex *core.Experiment) error {
	if !t.rec.traced {
		return fn(ex)
	}
	start := time.Now()
	err := fn(ex)
	t.rec.span(t.names[m], time.Since(start), true)
	return err
}

func (t *timedTarget) Name() string { return t.inner.Name() }

func (t *timedTarget) InitTestCard(ex *core.Experiment) error {
	start := time.Now()
	t.rec.experimentStarted(ex, start)
	err := t.inner.InitTestCard(ex)
	if t.rec.traced {
		t.rec.span(t.names[mInitTestCard], time.Since(start), true)
	}
	return err
}

func (t *timedTarget) LoadWorkload(ex *core.Experiment) error {
	return t.call(mLoadWorkload, t.inner.LoadWorkload, ex)
}

func (t *timedTarget) WriteMemory(ex *core.Experiment) error {
	return t.call(mWriteMemory, t.inner.WriteMemory, ex)
}

func (t *timedTarget) RunWorkload(ex *core.Experiment) error {
	return t.call(mRunWorkload, t.inner.RunWorkload, ex)
}

func (t *timedTarget) WaitForBreakpoint(ex *core.Experiment) error {
	return t.call(mWaitForBreakpoint, t.inner.WaitForBreakpoint, ex)
}

func (t *timedTarget) ReadScanChain(ex *core.Experiment) error {
	return t.call(mReadScanChain, t.inner.ReadScanChain, ex)
}

func (t *timedTarget) InjectFault(ex *core.Experiment) error {
	return t.call(mInjectFault, t.inner.InjectFault, ex)
}

func (t *timedTarget) WriteScanChain(ex *core.Experiment) error {
	return t.call(mWriteScanChain, t.inner.WriteScanChain, ex)
}

func (t *timedTarget) WaitForTermination(ex *core.Experiment) error {
	return t.call(mWaitForTermination, t.inner.WaitForTermination, ex)
}

func (t *timedTarget) ReadMemory(ex *core.Experiment) error {
	return t.call(mReadMemory, t.inner.ReadMemory, ex)
}

// wrapTarget wraps ts for timing under the given layer name. The result
// implements exactly the optional capabilities the runner probes that ts
// implements — core.Forwarder, core.ForwardCalibrator and
// core.NondeterministicTarget — so a traced run neither runs cold nor
// claims a determinism the target does not declare.
func wrapTarget(ts core.TargetSystem, rec *recorder, layer string) core.TargetSystem {
	t := &timedTarget{inner: ts, rec: rec}
	for m, suffix := range methodMetric {
		t.names[m] = layer + "." + suffix
	}
	fw, isFw := ts.(core.Forwarder)
	ca, isCa := ts.(core.ForwardCalibrator)
	nd, isNd := ts.(core.NondeterministicTarget)
	type (
		F = core.Forwarder
		C = core.ForwardCalibrator
		N = core.NondeterministicTarget
	)
	switch {
	case isFw && isCa && isNd:
		return struct {
			*timedTarget
			F
			C
			N
		}{t, fw, ca, nd}
	case isFw && isCa:
		return struct {
			*timedTarget
			F
			C
		}{t, fw, ca}
	case isFw && isNd:
		return struct {
			*timedTarget
			F
			N
		}{t, fw, nd}
	case isCa && isNd:
		return struct {
			*timedTarget
			C
			N
		}{t, ca, nd}
	case isFw:
		return struct {
			*timedTarget
			F
		}{t, fw}
	case isCa:
		return struct {
			*timedTarget
			C
		}{t, ca}
	case isNd:
		return struct {
			*timedTarget
			N
		}{t, nd}
	}
	return t
}

// timedSink wraps the campaign's checkpoint sink (a BatchingSink in
// production). Its LogExperiment return closes each experiment's latency.
type timedSink struct {
	inner core.CheckpointSink
	rec   *recorder
}

func (s *timedSink) LogExperiment(r *campaign.ExperimentRecord) error {
	start := time.Now()
	err := s.inner.LogExperiment(r)
	end := time.Now()
	s.rec.experimentLogged(r.Name, end)
	if s.rec.traced {
		s.rec.span("campaign.sink_log_us", end.Sub(start), true)
	}
	return err
}

func (s *timedSink) GetExperiment(name string) (*campaign.ExperimentRecord, error) {
	return s.inner.GetExperiment(name)
}

func (s *timedSink) Flush() error {
	return s.rec.timed("campaign.sink_flush_ms", true, s.inner.Flush)
}

func (s *timedSink) SaveCheckpoint(cp *campaign.Checkpoint) error {
	return s.rec.timed("campaign.save_checkpoint_ms", true, func() error {
		return s.inner.SaveCheckpoint(cp)
	})
}

// timedTransport wraps one shard worker's transport. Calls and errors
// are counted in every run; call durations and lease idle time only when
// tracing. One worker calls Lease from a single goroutine, so waitSince
// needs no lock.
type timedTransport struct {
	inner     shard.Transport
	rec       *recorder
	waitSince time.Time
}

func (t *timedTransport) done(name string, start time.Time, err error, busy bool) {
	d := time.Since(start)
	t.rec.mu.Lock()
	t.rec.calls++
	if err != nil {
		t.rec.callErrors++
	}
	t.rec.mu.Unlock()
	if t.rec.traced {
		t.rec.span(name, d, busy)
	}
}

func (t *timedTransport) Hello(ctx context.Context, req shard.HelloRequest) (*shard.HelloResponse, error) {
	start := time.Now()
	resp, err := t.inner.Hello(ctx, req)
	t.done("shard.hello_ms", start, err, true)
	return resp, err
}

func (t *timedTransport) Lease(ctx context.Context, req shard.LeaseRequest) (*shard.LeaseResponse, error) {
	start := time.Now()
	if !t.waitSince.IsZero() && t.rec.traced {
		t.rec.span("shard.idle_s", start.Sub(t.waitSince), false)
	}
	t.waitSince = time.Time{}
	resp, err := t.inner.Lease(ctx, req)
	t.done("shard.lease_ms", start, err, true)
	if err == nil {
		switch resp.Status {
		case shard.LeaseWait:
			t.waitSince = start
		case shard.LeaseRange:
			t.rec.mu.Lock()
			if t.rec.firstRange.IsZero() {
				t.rec.firstRange = time.Now()
			}
			t.rec.mu.Unlock()
		}
	}
	return resp, err
}

func (t *timedTransport) Heartbeat(ctx context.Context, req shard.HeartbeatRequest) error {
	start := time.Now()
	err := t.inner.Heartbeat(ctx, req)
	t.done("shard.heartbeat_ms", start, err, false)
	return err
}

func (t *timedTransport) Report(ctx context.Context, req shard.ReportRequest) (*shard.ReportResponse, error) {
	start := time.Now()
	resp, err := t.inner.Report(ctx, req)
	t.done("shard.report_ms", start, err, false)
	return resp, err
}
