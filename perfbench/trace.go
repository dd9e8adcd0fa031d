package main

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// stageSum is the running sum and count of one stage histogram.
type stageSum struct{ sum, count float64 }

// stageNames are the program's span names the cross-check reports.
var stageNames = []string{
	"handler", "pipeline", "session.resolve", "engine.scoring",
	"greedy.select", "wal.fsync",
}

// scrapeStages reads ses_resolve_stage_seconds from sesd's /metrics
// exposition.
func (r *run) scrapeStages() (map[string]stageSum, error) {
	resp, err := r.clients[0].Get(r.sesd.url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	out := map[string]stageSum{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		parseStageLine(sc.Text(), out)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return out, nil
}

// parseStageLine folds one exposition line of the form
// ses_resolve_stage_seconds_sum{stage="x"} v (or _count) into out.
func parseStageLine(line string, out map[string]stageSum) {
	rest, ok := strings.CutPrefix(line, "ses_resolve_stage_seconds_")
	if !ok {
		return
	}
	kind, rest, ok := strings.Cut(rest, `{stage="`)
	if !ok || (kind != "sum" && kind != "count") {
		return
	}
	name, rest, ok := strings.Cut(rest, `"}`)
	if !ok {
		return
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return
	}
	s := out[name]
	if kind == "sum" {
		s.sum += v
	} else {
		s.count += v
	}
	out[name] = s
}

// stageDeltas reports each stage's mean milliseconds per span between
// two scrapes. A stage that recorded no span in between is an error:
// a renamed span or a stage that stopped recording must not read as
// a perfect 0 ms.
func stageDeltas(before, after map[string]stageSum) (map[string]float64, error) {
	out := map[string]float64{}
	for _, n := range stageNames {
		a, b := after[n], before[n]
		dc := a.count - b.count
		if dc <= 0 {
			return nil, fmt.Errorf("stage %q recorded no span during the measured phases", n)
		}
		out["sesd.stage."+n+"_ms"] = (a.sum - b.sum) / dc * 1000
	}
	return out, nil
}
