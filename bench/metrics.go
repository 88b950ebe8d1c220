package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// endToEnd computes the metrics a user of the service sees, all on the
// client clock except set-up and memory.
func endToEnd(recs []jobRecord, setupS []float64, windowS float64) map[string]metric {
	var lat []float64
	cells := 0
	for _, rec := range recs {
		lat = append(lat, rec.done.Sub(rec.sent).Seconds())
		cells += rec.doneEv.Rows
	}
	return map[string]metric{
		"setup_s":     {quantile(setupS, 0.5), "s"},
		"job_p50_s":   {quantile(lat, 0.5), "s"},
		"job_p90_s":   {quantile(lat, 0.9), "s"},
		"cells_per_s": {float64(cells) / windowS, "cells/s"},
		"rss_peak_mb": {peakRSSMB(), "MB"},
	}
}

// perLayer computes the traced run's per-layer metrics from the jobs' client
// timings, statuses and cell spans, the window's /v1/metrics deltas (d) and
// end-of-window gauges (end), the dispatch-layer numbers, the window's
// allocation deltas and the direct calls.
func perLayer(recs []jobRecord, d, end scrape, fab fabricStats, mem memStats, dc directStats) map[string]metric {
	phase := make([][]float64, len(phaseNames))
	var first, runSelf, reqBytes []float64
	var cellTime time.Duration
	var spans int
	var cells, simulated, storeHits, memoHits, analyticN, remote, escalated, probes, searchExact, searches int64
	for _, rec := range recs {
		p := rec.phases()
		for k := range phase {
			phase[k] = append(phase[k], p[k+1].Sub(p[k]).Seconds())
		}
		first = append(first, rec.first.Sub(rec.sent).Seconds())
		runSelf = append(runSelf, rec.runSelf.Seconds())
		reqBytes = append(reqBytes, float64(rec.reqBytes))
		cellTime += rec.cellTime
		spans += rec.cells
		ev := rec.doneEv
		cells += int64(ev.Rows)
		simulated += ev.Simulated
		storeHits += ev.StoreHits
		memoHits += ev.MemoHits
		analyticN += ev.Analytic
		remote += ev.Remote
		escalated += ev.Escalations
		if rec.search {
			searches++
			probes += int64(rec.probes)
			searchExact += ev.Simulated
		}
	}
	cellMean := ratio(cellTime.Seconds(), float64(spans))
	if spans == 0 {
		// Search jobs record no cell spans; their cells are probes.
		cellMean = d.histMean("scalefold_search_probe_seconds")
	}
	share := func(n int64) float64 { return ratio(float64(n), float64(cells)) }
	hits, misses := d.sum("scalefold_store_hits_total"), d.sum("scalefold_store_misses_total")
	cacheHits, cacheMisses := d.sum("scalefold_store_cache_hits_total"), d.sum("scalefold_store_cache_misses_total")
	ops := d.sum("scalefold_store_lookup_seconds_count") + d.sum("scalefold_store_append_seconds_count")
	return map[string]metric{
		"service.first_event_p50_s":         {quantile(first, 0.5), "s"},
		"service.submit_mean_s":             {mean(phase[0]), "s"},
		"service.queue_wait_mean_s":         {mean(phase[1]), "s"},
		"service.run_mean_s":                {mean(phase[2]), "s"},
		"service.run_self_mean_s":           {mean(runSelf), "s"},
		"service.stream_lag_mean_s":         {mean(phase[3]), "s"},
		"service.request_bytes_mean":        {mean(reqBytes), "B"},
		"service.alloc_bytes_per_cell":      {ratio(float64(mem.totalAlloc), float64(cells)), "B"},
		"scalefold.simulated_share":         {share(simulated), "ratio"},
		"scalefold.store_hit_share":         {share(storeHits), "ratio"},
		"scalefold.memo_hit_share":          {share(memoHits), "ratio"},
		"scalefold.analytic_share":          {share(analyticN), "ratio"},
		"scalefold.remote_share":            {share(remote), "ratio"},
		"scalefold.escalated_share":         {share(escalated), "ratio"},
		"scalefold.cell_mean_s":             {cellMean, "s"},
		"store.get_mean_s":                  {d.histMean("scalefold_store_lookup_seconds"), "s"},
		"store.put_mean_s":                  {dc.putMean, "s"},
		"store.hit_share":                   {ratio(hits, hits+misses), "ratio"},
		"store.cache_hit_share":             {ratio(cacheHits, cacheHits+cacheMisses), "ratio"},
		"store.contention_per_kop":          {1000 * ratio(d.sum("scalefold_store_shard_contention_total"), ops), "1/kop"},
		"store.decode_failures":             {d.sum("scalefold_store_decode_failures_total"), "count"},
		"store.segments":                    {end.sum("scalefold_store_segments"), "count"},
		"store.open_s":                      {dc.openS, "s"},
		"analytic.estimate_fresh_p50_s":     {dc.estFresh, "s"},
		"analytic.estimate_repeat_p50_s":    {dc.estRepeat, "s"},
		"cluster.simulate_us_per_rank_step": {dc.simUsPerRankStep, "us"},
		"cluster.allocs_per_simulate":       {dc.allocsPerSim, "count"},
		"cluster.sharded_speedup":           {dc.shardedSpeedup, "ratio"},
		"workload.census_s":                 {dc.censusS, "s"},
		"search.probes_per_job":             {ratio(float64(probes), float64(searches)), "count"},
		"search.exact_per_job":              {ratio(float64(searchExact), float64(searches)), "count"},
		"fabric.queue_wait_mean_s":          {fab.queueWait, "s"},
		"fabric.claim_mean_s":               {fab.claim, "s"},
		"fabric.complete_mean_s":            {fab.complete, "s"},
		"fabric.claims_per_cell":            {fab.claimsPerCell, "ratio"},
		"fabric.reassigned":                 {fab.reassigned, "count"},
	}
}

// fabricStats are the dispatch layer's numbers: mean queue wait before a
// claim, mean coordinator handling time of the claim and complete RPCs,
// claim RPCs per settled cell, and loss-triggered requeues.
type fabricStats struct {
	queueWait, claim, complete, claimsPerCell, reassigned float64
}

func fabricOf(before, after scrape) fabricStats {
	d := before.delta(after)
	claims := d[`scalefold_fabric_rpc_seconds_count{rpc="claim"}`]
	return fabricStats{
		queueWait: d.histMean("scalefold_fabric_queue_wait_seconds"),
		claim:     ratio(d[`scalefold_fabric_rpc_seconds_sum{rpc="claim"}`], claims),
		complete: ratio(d[`scalefold_fabric_rpc_seconds_sum{rpc="complete"}`],
			d[`scalefold_fabric_rpc_seconds_count{rpc="complete"}`]),
		claimsPerCell: ratio(claims, d["scalefold_fabric_completed_total"]),
		reassigned:    d["scalefold_fabric_reassigned_total"],
	}
}

// scrape is one Prometheus text exposition: series (name plus label set,
// as exposed) to value.
type scrape map[string]float64

func parseScrape(r io.Reader) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad exposition line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

func scrapeURL(base string) (scrape, error) {
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: HTTP %d", resp.StatusCode)
	}
	return parseScrape(resp.Body)
}

func scrapeRegistry(reg *obs.Registry) (scrape, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseScrape(&buf)
}

// delta is after minus s, series by series.
func (s scrape) delta(after scrape) scrape {
	d := make(scrape, len(after))
	for k, v := range after {
		d[k] = v - s[k]
	}
	return d
}

// sum adds a family's series across every label set.
func (s scrape) sum(name string) float64 {
	var t float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// histMean is a histogram family's mean observation, across label sets.
func (s scrape) histMean(name string) float64 {
	return ratio(s.sum(name+"_sum"), s.sum(name+"_count"))
}

func readMem() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{m.TotalAlloc, m.Mallocs}
}

// quantile is the q-quantile of xs, interpolating linearly between order
// statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return ratio(t, float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfTime is the part of [lo, hi] no interval in ivs covers.
func selfTime(lo, hi time.Time, ivs [][2]time.Time) time.Duration {
	return hi.Sub(lo) - covered(lo, hi, ivs)
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi time.Time, ivs [][2]time.Time) time.Duration {
	var clipped [][2]time.Time
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if a.Before(b) {
			clipped = append(clipped, [2]time.Time{a, b})
		}
	}
	slices.SortFunc(clipped, func(x, y [2]time.Time) int { return x[0].Compare(y[0]) })
	var total time.Duration
	var curA, curB time.Time
	for i, iv := range clipped {
		switch {
		case i == 0:
			curA, curB = iv[0], iv[1]
		case iv[0].After(curB):
			total += curB.Sub(curA)
			curA, curB = iv[0], iv[1]
		case iv[1].After(curB):
			curB = iv[1]
		}
	}
	if len(clipped) > 0 {
		total += curB.Sub(curA)
	}
	return total
}
