package main

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/scifi"
	"goofi/internal/shard"
	"goofi/internal/sqldb"
	"goofi/internal/thor"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   int
		wantOK bool
	}{
		{2000, 990, true}, // p99.9 leaves only 2 samples beyond
		{1000, 990, true}, // exactly 10 beyond p99
		{999, 950, true},
		{200, 950, true},
		{100, 900, true},
		{40, 750, true},
		{20, 500, true},
		{19, 0, false},
		{0, 0, false},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", tc.n, got, ok, tc.want, tc.wantOK)
		}
		if ok && tc.n-rankOf(got, tc.n) < 10 {
			t.Errorf("n=%d: p%d leaves %d samples beyond", tc.n, got, tc.n-rankOf(got, tc.n))
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- {
		ds = append(ds, time.Duration(i)*time.Microsecond)
	}
	xs := durations(ds, time.Microsecond)
	s := summarise(xs, "us")
	if s.n != 100 || s.median != 50.5 || s.tailPm != 900 || s.tail != 90 {
		t.Fatalf("summarise = %+v", s)
	}
	sorted := sortedCopy(xs)
	if got := percentile(sorted, 500); got != 50 {
		t.Errorf("p50 = %v, want 50 (nearest rank)", got)
	}
	if got := percentile(sorted, 990); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
	if !strings.Contains(s.String(), "p90=90 us") || !strings.Contains(s.String(), "n=100") {
		t.Errorf("timing string %q lacks the tail percentile or the count", s.String())
	}
}

func TestTrimmedMean(t *testing.T) {
	// Ten campaigns, one stalled: the top and bottom value are dropped.
	xs := []float64{5, 1, 2, 3, 4, 5, 6, 7, 8, 1000}
	if got := trimmedMean(xs, 0.1); got != 5 {
		t.Errorf("trimmed mean = %v, want 5", got)
	}
	// A fast and a slow cluster: the trimmed mean moves in step with the
	// share of slow campaigns, where the median jumps between clusters.
	fast, slow := 40.0, 60.0
	mix := func(nSlow int) []float64 {
		var xs []float64
		for i := 0; i < 20; i++ {
			if i < nSlow {
				xs = append(xs, slow)
			} else {
				xs = append(xs, fast)
			}
		}
		return xs
	}
	if a, b := median(mix(9)), median(mix(11)); b-a != 20 {
		t.Errorf("median over 9 and 11 slow campaigns = %v and %v, want a jump of 20", a, b)
	}
	if a, b := trimmedMean(mix(9), 0.1), trimmedMean(mix(11), 0.1); math.Abs(b-a-2.5) > 1e-9 {
		t.Errorf("trimmed mean over 9 and 11 slow campaigns = %v and %v, want a step of 2.5", a, b)
	}
	for _, n := range []int{1, 2, 3} {
		if got := trimmedMean(make([]float64, n), 0.5); got != 0 {
			t.Errorf("n=%d: trimmed mean of zeros = %v", n, got)
		}
	}
	if got := trimmedMean([]float64{7}, 0.4); got != 7 {
		t.Errorf("one value: trimmed mean = %v, want 7", got)
	}
	if got := trimmedMean(nil, 0.1); got != 0 {
		t.Errorf("no values: trimmed mean = %v, want 0", got)
	}
}

func TestResidualFrac(t *testing.T) {
	if got := residualFrac(9*time.Second, 2, 5*time.Second); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("residual = %v, want 0.1", got)
	}
	if !math.IsNaN(residualFrac(time.Second, 2, 0)) {
		t.Fatal("residual over no wall time must be NaN")
	}
	for _, tc := range []struct {
		busy    time.Duration
		flagged bool
	}{
		{9 * time.Second, false}, // exactly 0.10 is not above the threshold
		{8 * time.Second, true},
	} {
		r := syntheticResult(true)
		r.boards, r.fi, r.busy = 2, 5*time.Second, tc.busy
		r.residual = residualFrac(r.busy, r.boards, r.fi)
		w, _ := lookupWorkload("pid-long")
		for _, m := range perLayer(w, []*result{r}, []*result{syntheticResult(false)}) {
			if m.name != "core.residual_frac" {
				continue
			}
			if got := strings.Contains(m.detail, "FLAGGED"); got != tc.flagged {
				t.Errorf("busy %v: residual %v flagged=%v, want %v (%s)", tc.busy, m.value, got, tc.flagged, m.detail)
			}
		}
	}
}

// flakyTarget fails InitTestCard of the chosen experiments: the first
// `times` attempts of each, or every attempt when times is negative.
type flakyTarget struct {
	core.TargetSystem
	fail  map[int]bool
	times int

	mu    sync.Mutex
	tries map[int]int
}

func (f *flakyTarget) InitTestCard(ex *core.Experiment) error {
	f.mu.Lock()
	f.tries[ex.Seq]++
	n := f.tries[ex.Seq]
	f.mu.Unlock()
	if f.fail[ex.Seq] && (f.times < 0 || n <= f.times) {
		return errors.New("flaky test card")
	}
	return f.TargetSystem.InitTestCard(ex)
}

func TestErrorRateUnderRetryPolicy(t *testing.T) {
	const m, maxRetries = 40, 2
	failing := map[int]bool{3: true, 11: true, 12: true, 30: true}
	n := len(failing)
	for _, tc := range []struct {
		name              string
		times             int
		attempted, failed int64
	}{
		// Each failing experiment fails once, is retried and succeeds.
		{"transient", 1, m + int64(n), int64(n)},
		// Each failing experiment exhausts its attempts: two retries,
		// then an invalid run.
		{"persistent", -1, m + maxRetries*int64(n), (maxRetries + 1) * int64(n)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := campaign.NewStore(sqldb.Open())
			if err != nil {
				t.Fatal(err)
			}
			tsd := scifi.TargetSystemData("thor-board")
			camp := sort16Campaign(5, "")
			camp.NumExperiments = m
			if err := st.PutTargetSystem(tsd); err != nil {
				t.Fatal(err)
			}
			if err := st.PutCampaign(camp); err != nil {
				t.Fatal(err)
			}
			target := &flakyTarget{TargetSystem: scifi.New(thor.DefaultConfig()), fail: failing,
				times: tc.times, tries: make(map[int]int)}
			r, err := core.NewRunner(target, core.SCIFI, camp, tsd, core.WithSink(st),
				core.WithRetryPolicy(core.RetryPolicy{MaxRetries: maxRetries}))
			if err != nil {
				t.Fatal(err)
			}
			sum, err := r.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			attempted, failed := experimentAttempts(sum)
			if attempted != tc.attempted || failed != tc.failed {
				t.Fatalf("attempted/failed = %d/%d, want %d/%d (summary %+v)",
					attempted, failed, tc.attempted, tc.failed, sum)
			}
			want := float64(tc.failed) / float64(tc.attempted)
			if got := errorRate(attempted, failed); math.Abs(got-want) > 1e-12 {
				t.Fatalf("error rate = %v, want %v", got, want)
			}
		})
	}
}

// flakyTransport fails every third call.
type flakyTransport struct{ n int }

var errNet = errors.New("connection refused")

func (f *flakyTransport) next() error {
	f.n++
	if f.n%3 == 0 {
		return errNet
	}
	return nil
}

func (f *flakyTransport) Hello(context.Context, shard.HelloRequest) (*shard.HelloResponse, error) {
	return &shard.HelloResponse{}, f.next()
}

func (f *flakyTransport) Lease(context.Context, shard.LeaseRequest) (*shard.LeaseResponse, error) {
	return &shard.LeaseResponse{Status: shard.LeaseWait}, f.next()
}

func (f *flakyTransport) Heartbeat(context.Context, shard.HeartbeatRequest) error { return f.next() }

func (f *flakyTransport) Report(context.Context, shard.ReportRequest) (*shard.ReportResponse, error) {
	return &shard.ReportResponse{}, f.next()
}

func TestTransportErrorAccounting(t *testing.T) {
	rec := newRecorder(true)
	tr := &timedTransport{inner: &flakyTransport{}, rec: rec}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		_, _ = tr.Hello(ctx, shard.HelloRequest{})
		_, _ = tr.Lease(ctx, shard.LeaseRequest{})
		_ = tr.Heartbeat(ctx, shard.HeartbeatRequest{})
		_, _ = tr.Report(ctx, shard.ReportRequest{})
	}
	if rec.calls != 12 || rec.callErrors != 4 {
		t.Fatalf("calls/errors = %d/%d, want 12/4", rec.calls, rec.callErrors)
	}
	if got := errorRate(rec.calls, rec.callErrors); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("error rate = %v, want 1/3", got)
	}
	// Only the first lease answered "wait" and was followed by another
	// lease: the second failed, the third was the last.
	if n := len(rec.samples["shard.idle_s"]); n != 1 {
		t.Fatalf("%d idle spans, want 1", n)
	}
}
