package main

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"ses/internal/dataset"
)

// This file is the benchmark's own model of a session: a shadow copy
// of the instance that the benchmark mutates itself, Ω computed
// directly from Eq. 1–3, and the paper's feasibility constraints. It
// shares no code with the program's engines.

// assign is one scheduled (event, interval) pair.
type assign struct {
	Event    int `json:"Event"`
	Interval int `json:"Interval"`
}

type shEvent struct {
	location  int
	required  float64
	row       map[int32]float64
	cancelled bool
}

type shComp struct {
	interval int
	row      map[int32]float64
}

// shadow is an independent copy of one session's instance and
// constraints.
type shadow struct {
	users, intervals int
	resources        float64
	actSeed          uint64
	events           []shEvent
	comp             []shComp
	pins             map[int]int
	k                int
}

func rowMap(ids []int32, vals []float64) map[int32]float64 {
	m := make(map[int32]float64, len(ids))
	for i, id := range ids {
		m[id] = vals[i]
	}
	return m
}

// newShadow copies an instance document; only uniform-hash activity
// (what scalegen writes) is modelled.
func newShadow(doc *dataset.InstanceDoc, k int) (*shadow, error) {
	if doc.Activity.Type != "uniformhash" {
		return nil, fmt.Errorf("oracle: activity %q not modelled", doc.Activity.Type)
	}
	s := &shadow{
		users: doc.NumUsers, intervals: doc.NumIntervals, resources: doc.Resources,
		actSeed: doc.Activity.Seed, pins: map[int]int{}, k: k,
	}
	for i, e := range doc.Events {
		r := doc.CandInterest.Rows[i]
		s.events = append(s.events, shEvent{location: e.Location, required: e.Required, row: rowMap(r.IDs, r.Vals)})
	}
	for i, c := range doc.Competing {
		r := doc.CompInterest.Rows[i]
		s.comp = append(s.comp, shComp{interval: c.Interval, row: rowMap(r.IDs, r.Vals)})
	}
	return s, nil
}

// apply mirrors one mutation the benchmark sent.
func (s *shadow) apply(m *mutation) {
	switch m.Op {
	case "pin":
		s.pins[m.Event] = m.Interval
	case "unpin":
		delete(s.pins, m.Event)
	case "update_interest":
		if m.Mu == 0 {
			delete(s.events[m.Event].row, int32(m.User))
		} else {
			s.events[m.Event].row[int32(m.User)] = m.Mu
		}
	case "add_event":
		s.events = append(s.events, shEvent{
			location: m.NewEvent.Location, required: m.NewEvent.Required, row: interestMap(m.Interest),
		})
	case "cancel_event":
		s.events[m.Event].cancelled = true
		delete(s.pins, m.Event)
	case "add_competing":
		s.comp = append(s.comp, shComp{interval: m.NewCompeting.Interval, row: interestMap(m.Interest)})
	}
}

func interestMap(in map[int]float64) map[int32]float64 {
	m := make(map[int32]float64, len(in))
	for u, v := range in {
		m[int32(u)] = v
	}
	return m
}

// splitmix64 and sigma restate the uniform-hash σ(u,t) model from its
// definition: three splitmix64 rounds over (seed, user, interval),
// 53 high bits mapped to [0,1).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func sigma(seed uint64, u, t int) float64 {
	h := splitmix64(seed ^ 0x6a09e667f3bcc909)
	h = splitmix64(h ^ uint64(u)*0x9e3779b97f4a7c15)
	h = splitmix64(h ^ uint64(t)*0xc2b2ae3d27d4eb4f)
	return float64(h>>11) / float64(1<<53)
}

// omega is Ω(S) (Eq. 3): the sum over scheduled events of ω (Eq. 2),
// the expected attendance Σ_u ρ(u,e), with ρ (Eq. 1) = σ(u,t)·µ(u,e)
// over u's total interest in every competing and scheduled event of
// e's interval.
func (s *shadow) omega(sched []assign) float64 {
	byT := map[int][]int{}
	for _, a := range sched {
		byT[a.Interval] = append(byT[a.Interval], a.Event)
	}
	total := 0.0
	for t, evs := range byT {
		denom := map[int32]float64{}
		for _, e := range evs {
			for u, mu := range s.events[e].row {
				denom[u] += mu
			}
		}
		for _, c := range s.comp {
			if c.interval != t {
				continue
			}
			for u, mu := range c.row {
				if _, ok := denom[u]; ok {
					denom[u] += mu
				}
			}
		}
		for _, e := range evs {
			for u, mu := range s.events[e].row {
				if mu > 0 {
					total += sigma(s.actSeed, int(u), t) * mu / denom[u]
				}
			}
		}
	}
	return total
}

// check verifies a committed schedule and its reported utility: each
// event at most once and in range, cancelled events absent, one event
// per location per interval, Σξ ≤ θ per interval, every pin honoured,
// |S| ≤ max(k, pins), and utility = Ω within 1e-9 relative.
func (s *shadow) check(sched []assign, utility float64) error {
	seen := map[int]bool{}
	type slot struct{ loc, t int }
	locs := map[slot]bool{}
	load := map[int]float64{}
	for _, a := range sched {
		if a.Event < 0 || a.Event >= len(s.events) || a.Interval < 0 || a.Interval >= s.intervals {
			return fmt.Errorf("assignment (%d,%d) out of range", a.Event, a.Interval)
		}
		if seen[a.Event] {
			return fmt.Errorf("event %d scheduled twice", a.Event)
		}
		seen[a.Event] = true
		ev := s.events[a.Event]
		if ev.cancelled {
			return fmt.Errorf("cancelled event %d scheduled", a.Event)
		}
		sl := slot{ev.location, a.Interval}
		if locs[sl] {
			return fmt.Errorf("location %d used twice in interval %d", ev.location, a.Interval)
		}
		locs[sl] = true
		load[a.Interval] += ev.required
		if load[a.Interval] > s.resources*(1+1e-12) {
			return fmt.Errorf("interval %d over budget: %v > %v", a.Interval, load[a.Interval], s.resources)
		}
	}
	at := map[int]int{}
	for _, a := range sched {
		at[a.Event] = a.Interval
	}
	for e, t := range s.pins {
		if got, ok := at[e]; !ok || got != t {
			return fmt.Errorf("pin (%d,%d) not honoured", e, t)
		}
	}
	if len(sched) > max(s.k, len(s.pins)) {
		return fmt.Errorf("%d events scheduled, limit %d", len(sched), max(s.k, len(s.pins)))
	}
	want := s.omega(sched)
	if !closeRel(utility, want, 1e-9) {
		return fmt.Errorf("utility %.12g, Ω of its assignments %.12g", utility, want)
	}
	return nil
}

func closeRel(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// canonical sorts a schedule by event so schedules compare by value.
func canonical(sched []assign) []assign {
	out := append([]assign(nil), sched...)
	sort.Slice(out, func(i, j int) bool { return out[i].Event < out[j].Event })
	return out
}

func sameSchedule(a, b []assign) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = canonical(a), canonical(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// doc rebuilds an instance document from the shadow, for the fresh
// session the history-independence check solves.
func (s *shadow) doc() *dataset.InstanceDoc {
	d := &dataset.InstanceDoc{
		NumUsers: s.users, NumIntervals: s.intervals, Resources: s.resources,
		Activity:     dataset.ActivityDoc{Type: "uniformhash", Seed: s.actSeed},
		CandInterest: dataset.MatrixDoc{NumUsers: s.users},
		CompInterest: dataset.MatrixDoc{NumUsers: s.users},
	}
	for _, e := range s.events {
		d.Events = append(d.Events, eventDoc(e.location, e.required))
		d.CandInterest.Rows = append(d.CandInterest.Rows, vectorDoc(e.row))
	}
	for _, c := range s.comp {
		d.Competing = append(d.Competing, competingDoc(c.interval))
		d.CompInterest.Rows = append(d.CompInterest.Rows, vectorDoc(c.row))
	}
	return d
}

func vectorDoc(row map[int32]float64) dataset.VectorDoc {
	v := dataset.VectorDoc{IDs: make([]int32, 0, len(row)), Vals: make([]float64, 0, len(row))}
	for u := range row {
		v.IDs = append(v.IDs, u)
	}
	sort.Slice(v.IDs, func(i, j int) bool { return v.IDs[i] < v.IDs[j] })
	for _, u := range v.IDs {
		v.Vals = append(v.Vals, row[u])
	}
	return v
}

var errNoVersion = errors.New("matches no committed version")
