package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"ses/internal/colstore"
	"ses/internal/dataset"
	"ses/internal/scalegen"
)

// mutKind is one write the generator can draw.
type mutKind uint8

const (
	mPin mutKind = iota
	mUnpin
	mInterest
	mAddEvent
	mCancel
	mAddCompeting
)

// weighted is one entry of a workload's write mix.
type weighted struct {
	kind   mutKind
	weight int
}

// workload fixes everything a run does apart from the seed and the
// run length: the sessions and their sizes, the open-loop rates and
// mix. perfbench/README.md says where each constant comes from.
type workload struct {
	name string
	// sessions, users and k size the scalegen sessions; users is
	// drawn uniformly from [usersMin, usersMax] per session.
	sessions           int
	usersMin, usersMax int
	k                  int
	headFraction       float64
	// writeRate and readRate are the open-loop rates (ops per second)
	// over all sessions.
	writeRate, readRate float64
	mix                 []weighted
	// skew is the Zipf exponent of the session a write or read goes
	// to (0 = uniform).
	skew float64
	// phased, when set, replaces independent draws with a fixed
	// layout per write period (see phasing).
	phased *phasing
	// closedPerSec sizes the closed-loop phase: closedPerSec × seconds
	// writes in total.
	closedPerSec float64
	// windows is how many equal windows the open-loop phase is cut
	// into; latencies report the best window (see windowLatency). 1
	// takes the whole phase.
	windows int
	// layerOps caps the operations each per-layer replay times.
	layerOps int
}

// sesdFlags are the flags every workload adds to sesd's defaults.
var sesdFlags = []string{"-sync", "always", "-group-commit"}

// setupReps and recovReps are how many set-ups and kill -9 restarts a
// run times; it reports the median set-up and records every restart.
const setupReps, recovReps = 5, 11

var workloads = map[string]*workload{
	"churn": {
		name:     "churn",
		sessions: 48, usersMin: 400, usersMax: 800, k: 10, headFraction: 0.3,
		writeRate: 64, readRate: 64,
		mix: []weighted{
			{mPin, 3}, {mUnpin, 3}, {mInterest, 6}, {mAddEvent, 1}, {mCancel, 1}, {mAddCompeting, 1},
		},
		skew: 1.1, closedPerSec: 170, windows: 28, layerOps: 400,
	},
	"bigplan": {
		name:     "bigplan",
		sessions: 8, usersMin: 100000, usersMax: 100000, k: 100, headFraction: 0.02,
		writeRate: 49.0 / 15, readRate: 4 * 49.0 / 15,
		mix:          []weighted{{mPin, 1}, {mUnpin, 1}, {mInterest, 2}},
		phased:       &phasing{overlapAfter: 10 * time.Millisecond, lateReads: 3, lateFrom: 0.7},
		closedPerSec: 3.4, windows: 1, layerOps: 12,
	},
}

// phasing lays the open-loop stream out per write period: writes go
// round-robin over a seeded order of the sessions on one connection.
// On the other, a schedule read of the session just written follows
// each write by overlapAfter, so it waits on the session lock behind
// the resolve, and lateReads reads of seeded sessions are spread over
// the period from lateFrom on, after a typical resolve has finished.
type phasing struct {
	overlapAfter time.Duration
	lateReads    int
	lateFrom     float64
}

// input is one session's generated create body and shadow.
type input struct {
	name string
	k    int
	doc  *dataset.InstanceDoc
	body []byte // encoded POST /v1/sessions body
}

// genInputs builds every session's instance with scalegen, seeded from
// the run seed and the session index.
func genInputs(w *workload, seed uint64, dir string) ([]*input, error) {
	rng := newRNG(seed, "sessions")
	var out []*input
	for i := 0; i < w.sessions; i++ {
		users := w.usersMin
		if w.usersMax > w.usersMin {
			users += rng.intn(w.usersMax - w.usersMin + 1)
		}
		cfg := scalegen.Config{
			Users: users, K: w.k, HeadFraction: w.headFraction,
			Seed: seed*1000003 + uint64(i),
		}
		path := filepath.Join(dir, fmt.Sprintf("input-%d.sescol", i))
		if _, err := scalegen.Generate(path, cfg); err != nil {
			return nil, err
		}
		st, err := colstore.Open(path)
		if err != nil {
			return nil, err
		}
		doc, err := dataset.NewInstanceDoc(st.Instance())
		if err != nil {
			st.Close()
			return nil, err
		}
		// Marshal before Close: the document's rows alias the mapping.
		raw, err := json.Marshal(doc)
		st.Close()
		if err != nil {
			return nil, err
		}
		var own dataset.InstanceDoc
		if err := json.Unmarshal(raw, &own); err != nil {
			return nil, err
		}
		in := &input{name: fmt.Sprintf("%s-%02d", w.name, i), k: w.k, doc: &own}
		in.body, err = json.Marshal(map[string]any{
			"name": in.name, "k": in.k, "instance": json.RawMessage(raw),
		})
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}
