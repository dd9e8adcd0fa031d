package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"ses/internal/choice"
	"ses/internal/core"
	"ses/internal/dataset"
)

// tinyDoc is a hand-built instance: events 0 and 1 share location 0,
// θ = 5 with ξ = 2, 2, 4, 1, and one competing event at interval 0.
func tinyDoc() *dataset.InstanceDoc {
	return &dataset.InstanceDoc{
		NumUsers: 3, NumIntervals: 2, Resources: 5,
		Events: []core.Event{
			{Location: 0, Required: 2}, {Location: 0, Required: 2},
			{Location: 1, Required: 4}, {Location: 2, Required: 1},
		},
		Competing: []core.CompetingEvent{{Interval: 0}},
		CandInterest: dataset.MatrixDoc{NumUsers: 3, Rows: []dataset.VectorDoc{
			{IDs: []int32{0, 1}, Vals: []float64{0.5, 0.9}},
			{IDs: []int32{1, 2}, Vals: []float64{0.3, 0.7}},
			{IDs: []int32{0, 2}, Vals: []float64{0.8, 0.2}},
			{IDs: []int32{1}, Vals: []float64{0.6}},
		}},
		CompInterest: dataset.MatrixDoc{NumUsers: 3, Rows: []dataset.VectorDoc{
			{IDs: []int32{0, 1}, Vals: []float64{0.4, 0.1}},
		}},
		Activity: dataset.ActivityDoc{Type: "uniformhash", Seed: 7},
	}
}

func TestOracleOmegaAgreesWithReference(t *testing.T) {
	doc := tinyDoc()
	inst, err := doc.Instance()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := newShadow(doc, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range [][]assign{
		{{0, 0}, {2, 1}},
		{{0, 0}, {3, 0}, {2, 1}},
		{{1, 1}, {3, 1}, {2, 0}},
	} {
		cs := core.NewSchedule(inst)
		for _, a := range sched {
			if err := cs.Assign(a.Event, a.Interval); err != nil {
				t.Fatal(err)
			}
		}
		want := choice.ReferenceUtility(inst, cs)
		if got := sh.omega(sched); !closeRel(got, want, 1e-12) {
			t.Errorf("Ω%v = %v, reference %v", sched, got, want)
		}
		if err := sh.check(sched, want); err != nil {
			t.Errorf("valid schedule %v rejected: %v", sched, err)
		}
	}
}

func TestOracleRejectsCorruptedSchedules(t *testing.T) {
	sh, err := newShadow(tinyDoc(), 3)
	if err != nil {
		t.Fatal(err)
	}
	good := []assign{{0, 0}, {2, 1}}
	util := sh.omega(good)
	if err := sh.check(good, util); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	cases := map[string]struct {
		sched []assign
		util  float64
		pins  map[int]int
	}{
		"wrong utility":   {good, util * (1 + 1e-6), nil},
		"location clash":  {[]assign{{0, 0}, {1, 0}}, 0, nil},
		"over budget":     {[]assign{{2, 1}, {0, 1}}, 0, nil},
		"dropped pin":     {good, util, map[int]int{3: 1}},
		"moved pin":       {[]assign{{0, 0}, {2, 1}, {3, 0}}, 0, map[int]int{3: 1}},
		"event twice":     {[]assign{{0, 0}, {0, 1}}, 0, nil},
		"too many events": {[]assign{{0, 0}, {2, 1}, {3, 0}, {1, 1}}, 0, nil},
	}
	for name, c := range cases {
		sh.pins = map[int]int{}
		for e, tt := range c.pins {
			sh.pins[e] = tt
		}
		u := c.util
		if u == 0 {
			u = sh.omega(c.sched)
		}
		if err := sh.check(c.sched, u); err == nil {
			t.Errorf("%s: corrupted schedule %v accepted", name, c.sched)
		}
	}
	sh.pins = map[int]int{}
	sh.apply(&mutation{Op: "cancel_event", Event: 2})
	if err := sh.check(good, util); err == nil {
		t.Error("cancelled event accepted")
	}
}

func TestReadMustMatchAnAcknowledgedVersion(t *testing.T) {
	s := &sess{name: "x", versions: []version{
		{sched: []assign{{0, 0}}, util: 1},
		{sched: []assign{{0, 1}}, util: 2},
		{sched: []assign{{1, 1}}, util: 3},
	}}
	read := func(lo, hi int64, sched []assign, util float64) error {
		return (&readRec{s: s, lo: lo, hi: hi, sched: &schedResp{sched, util}}).match()
	}
	if err := read(1, 2, []assign{{1, 1}}, 3); err != nil {
		t.Errorf("current version rejected: %v", err)
	}
	// Version 0 predates a write acknowledged before the read was sent.
	if err := read(1, 2, []assign{{0, 0}}, 1); !errors.Is(err, errNoVersion) {
		t.Errorf("read missing an acknowledged write accepted: %v", err)
	}
	// A torn read: version 1's schedule with version 2's utility.
	if err := read(0, 2, []assign{{0, 1}}, 3); !errors.Is(err, errNoVersion) {
		t.Errorf("torn read accepted: %v", err)
	}
	meta := &readRec{s: s, lo: 2, hi: 2, meta: &metaResp{Scheduled: 1, Utility: 3, Batches: 1}}
	if err := meta.match(); !errors.Is(err, errNoVersion) {
		t.Errorf("metadata with a lost batch accepted: %v", err)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for n := 0; n < 3000; n++ {
		p, ok := tailPercentile(n)
		if !ok {
			if n >= 20 {
				t.Fatalf("n=%d: no tail, but p50 has %d beyond", n, beyond(n, 50))
			}
			continue
		}
		if beyond(n, p) < 10 {
			t.Fatalf("n=%d: p%v has only %d samples beyond", n, p, beyond(n, p))
		}
		for _, q := range tailPercentiles {
			if q > p && beyond(n, q) >= 10 {
				t.Fatalf("n=%d: chose p%v though p%v has %d beyond", n, p, q, beyond(n, q))
			}
		}
	}
	if _, ok := tailPercentile(19); ok {
		t.Error("19 samples gave a tail")
	}
	if p, _ := tailPercentile(1000); p != 99 {
		t.Errorf("1000 samples: tail p%v, want p99", p)
	}
}

func TestPacedTimesFromIntendedStart(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newClient()
	step := 10 * time.Millisecond
	ats := make([]time.Duration, 10)
	for i := range ats {
		ats[i] = time.Duration(i) * step
	}
	lat, lag := paced(time.Now(), ats, func(int) {
		if err := call(c, "GET", srv.URL, nil, nil); err != nil {
			t.Error(err)
		}
	})
	for i := 1; i < len(ats); i++ {
		// Call i was due at i·step but could only start after the stall:
		// its latency must include that wait.
		if want := stall - ats[i]; lat[i] < want || lag[i] < want {
			t.Errorf("call %d: latency %v, lag %v, want both ≥ %v", i, lat[i], lag[i], want)
		}
	}
	if lat[0] < stall {
		t.Errorf("stalled call latency %v < %v", lat[0], stall)
	}
}

func TestInputsAreSeeded(t *testing.T) {
	w := *workloads["churn"]
	w.sessions = 2
	a, err := genInputs(&w, 5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := genInputs(&w, 5, filepath.Join(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	c, err := genInputs(&w, 6, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if string(a[1].body) != string(b[1].body) {
		t.Error("same seed gave different inputs")
	}
	if string(a[1].body) == string(c[1].body) {
		t.Error("different seeds gave the same input")
	}
}

func TestWindowLatencyTakesTheBestWindow(t *testing.T) {
	span := 10 * time.Second
	stream := func(base time.Duration) []*sample {
		var ss []*sample
		for i := 0; i < 1000; i++ {
			lat := base
			if i%20 == 0 {
				lat = 5 * base // 5% slow in every window
			}
			if i >= 500 {
				lat = 50 * time.Millisecond // the host stalls for half the phase
			}
			ss = append(ss, &sample{at: span * time.Duration(i) / 1000, lat: lat})
		}
		return ss
	}
	l, err := windowLatency(stream(time.Millisecond), span, 10)
	if err != nil {
		t.Fatal(err)
	}
	if l.windows != 10 || l.pct != 90 {
		t.Fatalf("%d windows at p%v, want 10 at p90", l.windows, l.pct)
	}
	if l.p50 != 1 || l.tail != 1 {
		t.Errorf("p50 %v ms, tail %v ms: the stalled windows decided them", l.p50, l.tail)
	}
	// A slower program is slower in every window, so it still shows.
	slow, err := windowLatency(stream(2*time.Millisecond), span, 10)
	if err != nil {
		t.Fatal(err)
	}
	if slow.p50 != 2 || slow.tail != 2 {
		t.Errorf("twice as slow: p50 %v ms, tail %v ms, want 2 and 2", slow.p50, slow.tail)
	}
	whole, err := windowLatency(stream(time.Millisecond), span, 1)
	if err != nil || whole.pct != 99 || whole.tail != 50 {
		t.Errorf("one window: p%v tail %v ms (%v), want the whole phase's p99 of 50 ms", whole.pct, whole.tail, err)
	}
	var sparse []*sample
	for i, s := range stream(time.Millisecond) {
		if i%10 == 0 {
			sparse = append(sparse, s)
		}
	}
	if _, err := windowLatency(sparse, span, 10); err == nil {
		t.Error("10 samples per window gave a tail")
	}
}

func TestStageDeltasRefuseSilentStages(t *testing.T) {
	scrape := func(lines ...string) map[string]stageSum {
		out := map[string]stageSum{}
		for _, l := range lines {
			parseStageLine(l, out)
		}
		return out
	}
	var before, after []string
	for i, n := range stageNames {
		before = append(before, `ses_resolve_stage_seconds_sum{stage="`+n+`"} 1`,
			`ses_resolve_stage_seconds_count{stage="`+n+`"} 10`)
		after = append(after, `ses_resolve_stage_seconds_sum{stage="`+n+`"} 1.5`,
			`ses_resolve_stage_seconds_count{stage="`+n+`"} `+[]string{"20", "110"}[i%2])
	}
	got, err := stageDeltas(scrape(before...), scrape(after...))
	if err != nil {
		t.Fatal(err)
	}
	if v := got["sesd.stage.handler_ms"]; v != 50 {
		t.Errorf("handler: %v ms per span, want 50", v)
	}
	if v := got["sesd.stage.pipeline_ms"]; v != 5 {
		t.Errorf("pipeline: %v ms per span, want 5", v)
	}
	// A stage whose count did not move, or that vanished from the
	// exposition, fails the run instead of reading 0 ms.
	stalled := append(append([]string{}, after[:len(after)-2]...), before[len(before)-2:]...)
	if _, err := stageDeltas(scrape(before...), scrape(stalled...)); err == nil {
		t.Error("a stage without new spans was accepted")
	}
	if _, err := stageDeltas(scrape(before...), scrape(after[2:]...)); err == nil {
		t.Error("a stage missing from the exposition was accepted")
	}
}
