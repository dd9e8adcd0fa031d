package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// rng is the benchmark's seeded stream: splitmix64 over a state
// derived from the run seed and a label, so every stream (a session's
// writes, the arrival schedule, input sizes) is independent and
// reproducible.
type rng struct{ s uint64 }

func newRNG(seed uint64, label string) *rng {
	h := fnv.New64a()
	h.Write([]byte(label))
	return &rng{s: splitmix64(seed ^ h.Sum64())}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return splitmix64(r.s)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// zipf draws indices in [0,n) with P(i) ∝ 1/(i+1)^s.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	sum := 0.0
	for i := range z.cum {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cum[i] = sum
	}
	for i := range z.cum {
		z.cum[i] /= sum
	}
	return z
}

func (z *zipf) draw(r *rng) int {
	return min(sort.SearchFloat64s(z.cum, r.float()), len(z.cum)-1)
}

// tailPercentiles are the candidates for a workload's reported tail,
// highest first.
var tailPercentiles = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// beyond is how many of n samples rank above percentile p.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailPercentile is the highest candidate percentile with at least ten
// of n samples beyond it; ok is false when none qualifies.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latency summarizes one operation class of the open-loop phase.
type latency struct {
	n       int     // samples
	windows int     // equal windows the phase was cut into
	pct     float64 // percentile reported as the tail
	p50     float64 // lowest window median
	tail    float64 // lowest window tail
}

func (l latency) describe() map[string]float64 {
	return map[string]float64{"samples": float64(l.n), "windows": float64(l.windows), "percentile": l.pct}
}

// windowLatency cuts the phase into w equal windows by intended start
// and reports the lowest window median and the lowest window tail. The
// tail is the highest percentile with at least ten samples beyond it
// in the smallest window. The shared host's slow stretches only ever
// add latency, so the least-disturbed window is the run's closest
// estimate of the program's own; with w = 1 it is the whole phase.
func windowLatency(ss []*sample, span time.Duration, w int) (latency, error) {
	l := latency{n: len(ss), windows: w}
	per := make([][]float64, w)
	for _, s := range ss {
		k := min(int(s.at*time.Duration(w)/span), w-1)
		per[k] = append(per[k], ms(s.lat))
	}
	fewest := len(ss)
	for _, x := range per {
		fewest = min(fewest, len(x))
	}
	p, ok := tailPercentile(fewest)
	if !ok {
		return l, fmt.Errorf("a window has %d samples, too few for a tail", fewest)
	}
	l.pct, l.p50, l.tail = p, math.Inf(1), math.Inf(1)
	for _, x := range per {
		sort.Float64s(x)
		l.p50 = min(l.p50, percentile(x, 50))
		l.tail = min(l.tail, percentile(x, p))
	}
	return l, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
