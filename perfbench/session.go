package main

import (
	"fmt"
	"sort"
	"sync/atomic"

	"ses/internal/core"
)

// mutation is the wire form of one batch mutation (see the sesd API).
type mutation struct {
	Op           string               `json:"op"`
	Event        int                  `json:"event,omitempty"`
	Interval     int                  `json:"interval,omitempty"`
	User         int                  `json:"user,omitempty"`
	Mu           float64              `json:"mu,omitempty"`
	NewEvent     *core.Event          `json:"new_event,omitempty"`
	NewCompeting *core.CompetingEvent `json:"new_competing,omitempty"`
	Interest     map[int]float64      `json:"interest,omitempty"`
}

func eventDoc(loc int, req float64) core.Event { return core.Event{Location: loc, Required: req} }

func competingDoc(t int) core.CompetingEvent { return core.CompetingEvent{Interval: t} }

// delta is the part of a committed resolve the benchmark reads.
type delta struct {
	Added   []assign
	Removed []assign
	Moved   []struct{ Event, From, To int }
	Utility float64
}

type batchResp struct {
	EventIDs     []int  `json:"event_ids"`
	CompetingIDs []int  `json:"competing_ids"`
	Delta        *delta `json:"delta"`
}

type metaResp struct {
	Scheduled int
	Utility   float64
	Mutations uint64
	Batches   uint64
}

type schedResp struct {
	Assignments []assign `json:"assignments"`
	Utility     float64  `json:"utility"`
}

// version is one committed state of a session: the schedule and
// utility a write's response carried, and the mutation that led to it
// (nil for the state after the set-up resolve).
type version struct {
	mut   *mutation
	sched []assign
	util  float64
	op    *sample // the write that produced it, failed if the oracle rejects it
}

// sess is the benchmark's view of one session. The connection that
// writes the session in a phase is the only goroutine touching its
// bookkeeping and versions; acked and sent are also read by a
// concurrent reader, to bound which versions a read may return.
type sess struct {
	idx  int
	in   *input
	name string

	nEvents, nComp, users, intervals int
	resources                        float64
	cancelled                        []bool
	pins                             map[int]int
	cur                              map[int]int
	writes                           int // writes generated so far (seeds the next one)
	mutations                        uint64
	broken                           bool

	versions []version
	acked    atomic.Int64 // versions acknowledged after set-up
	sent     atomic.Int64 // writes sent after set-up
}

func newSess(idx int, in *input) *sess {
	d := in.doc
	return &sess{
		idx: idx, in: in, name: in.name,
		nEvents: len(d.Events), nComp: len(d.Competing), users: d.NumUsers, intervals: d.NumIntervals,
		resources: d.Resources, cancelled: make([]bool, len(d.Events)),
		pins: map[int]int{}, cur: map[int]int{},
	}
}

func (s *sess) schedule() []assign {
	out := make([]assign, 0, len(s.cur))
	for e, t := range s.cur {
		out = append(out, assign{e, t})
	}
	return canonical(out)
}

// commit applies a committed delta and records the new version.
func (s *sess) commit(m *mutation, d *delta, op *sample) {
	for _, a := range d.Removed {
		delete(s.cur, a.Event)
	}
	for _, a := range d.Added {
		s.cur[a.Event] = a.Interval
	}
	for _, mv := range d.Moved {
		s.cur[mv.Event] = mv.To
	}
	s.versions = append(s.versions, version{mut: m, sched: s.schedule(), util: d.Utility, op: op})
	if m != nil {
		s.acked.Add(1)
	}
}

// nextMutation draws the session's next write from the seeded stream.
// Pins are drawn from the committed schedule (so the pin set is
// always a feasible sub-schedule), unpins from the current pins.
func (s *sess) nextMutation(seed uint64, mix []weighted) *mutation {
	r := newRNG(seed, fmt.Sprintf("write-%d-%d", s.idx, s.writes))
	s.writes++
	total := 0
	for _, w := range mix {
		total += w.weight
	}
	pick := r.intn(total)
	kind := mix[0].kind
	for _, w := range mix {
		if pick < w.weight {
			kind = w.kind
			break
		}
		pick -= w.weight
	}
	if kind == mUnpin && len(s.pins) == 0 {
		kind = mPin
	}
	if kind == mPin {
		var free []assign
		for _, a := range s.schedule() {
			if _, pinned := s.pins[a.Event]; !pinned {
				free = append(free, a)
			}
		}
		if len(free) == 0 {
			kind = mInterest
		} else {
			a := free[r.intn(len(free))]
			return &mutation{Op: "pin", Event: a.Event, Interval: a.Interval}
		}
	}
	switch kind {
	case mUnpin:
		pinned := make([]int, 0, len(s.pins))
		for e := range s.pins {
			pinned = append(pinned, e)
		}
		sort.Ints(pinned)
		return &mutation{Op: "unpin", Event: pinned[r.intn(len(pinned))]}
	case mAddEvent:
		ev := eventDoc(r.intn(25), 1+r.float()*(s.resources/3-1))
		return &mutation{Op: "add_event", NewEvent: &ev, Interest: s.audience(r)}
	case mCancel:
		var live []int
		for e, c := range s.cancelled {
			if _, pinned := s.pins[e]; !c && !pinned {
				live = append(live, e)
			}
		}
		if len(live) > 2*s.in.k {
			return &mutation{Op: "cancel_event", Event: live[r.intn(len(live))]}
		}
	case mAddCompeting:
		c := competingDoc(r.intn(s.intervals))
		return &mutation{Op: "add_competing", NewCompeting: &c, Interest: s.audience(r)}
	}
	return &mutation{Op: "update_interest", Event: r.intn(s.nEvents), User: r.intn(s.users), Mu: 0.04 + 0.96*r.float()}
}

// audience draws a small per-user interest map.
func (s *sess) audience(r *rng) map[int]float64 {
	n := 4 + r.intn(16)
	m := make(map[int]float64, n)
	for len(m) < min(n, s.users) {
		m[r.intn(s.users)] = 0.04 + 0.96*r.float()
	}
	return m
}

// acknowledge updates the writer-side bookkeeping after a 2xx.
func (s *sess) acknowledge(m *mutation, resp *batchResp) error {
	switch m.Op {
	case "pin":
		s.pins[m.Event] = m.Interval
	case "unpin":
		delete(s.pins, m.Event)
	case "cancel_event":
		s.cancelled[m.Event] = true
		delete(s.pins, m.Event)
	case "add_event":
		if len(resp.EventIDs) != 1 || resp.EventIDs[0] != s.nEvents {
			return fmt.Errorf("add_event got ids %v, want [%d]", resp.EventIDs, s.nEvents)
		}
		s.nEvents++
		s.cancelled = append(s.cancelled, false)
	case "add_competing":
		if len(resp.CompetingIDs) != 1 || resp.CompetingIDs[0] != s.nComp {
			return fmt.Errorf("add_competing got ids %v, want [%d]", resp.CompetingIDs, s.nComp)
		}
		s.nComp++
	}
	s.mutations++
	return nil
}
