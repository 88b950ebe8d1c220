package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// cellSpan is one server cell span from GET /v1/jobs/{id}/trace, on the
// benchmark's clock.
type cellSpan struct {
	name, owner, source string
	start, end          time.Time
}

// stageSpan is one timed stage of the direct calls.
type stageSpan struct {
	name       string
	start, end time.Time
}

// traceCellJobs is how many of the first jobs keep their cell spans for the
// trace file; the per-layer metrics use every job's.
const traceCellJobs = 200

// observe reads a finished job's server-side lifecycle from outside the
// layers: its status timestamps and its cell spans.
func (r *runner) observe(c *service.Client, rec *jobRecord) error {
	st, err := c.Job(rec.id)
	if err != nil {
		return err
	}
	if st.Started == nil || st.Finished == nil {
		return fmt.Errorf("job %s status lacks start or finish time", rec.id)
	}
	rec.created, rec.started, rec.finished = st.Created, *st.Started, *st.Finished
	var buf bytes.Buffer
	if err := c.Trace(rec.id, &buf); err != nil {
		return err
	}
	var evs []obs.TraceEvent
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		return fmt.Errorf("job %s trace: %w", rec.id, err)
	}
	var ivs [][2]time.Time
	for _, ev := range evs {
		if ev.Ph != "X" || ev.Cat != "cell" {
			continue
		}
		// Span times are offsets from the job's tracer, which the server
		// creates with the job.
		start := rec.created.Add(time.Duration(ev.TS * float64(time.Microsecond)))
		end := start.Add(time.Duration(ev.Dur * float64(time.Microsecond)))
		ivs = append(ivs, [2]time.Time{start, end})
		rec.cellTime += end.Sub(start)
		if rec.index < traceCellJobs {
			rec.spans = append(rec.spans, cellSpan{
				name: ev.Name, owner: ev.Args["owner"], source: ev.Args["source"], start: start, end: end,
			})
		}
	}
	rec.cells = len(ivs)
	rec.runSelf = selfTime(rec.started, rec.finished, ivs)
	return nil
}

// phaseNames are a job's phases, in order; they split its latency.
var phaseNames = []string{"submit", "queue", "run", "stream-tail"}

// phases are the instants that bound the job's phases: POST sent, job
// created, started and finished on the server, DoneEvent parsed. The POST
// response travels while the job already queues or runs, so the round trip
// is not a phase of its own.
func (rec jobRecord) phases() [5]time.Time {
	return [5]time.Time{rec.sent, rec.created, rec.started, rec.finished, rec.done}
}

// traceWriter renders spans as Chrome trace-event JSON: one thread row per
// lane, every span's id and parent in its args.
type traceWriter struct {
	t0    time.Time
	lanes map[string]int
	w     *bufio.Writer
	n     int
}

func (tw *traceWriter) emit(ev obs.TraceEvent) {
	if tw.n > 0 {
		tw.w.WriteString(",\n")
	}
	tw.n++
	b, _ := json.Marshal(ev) // TraceEvent holds only strings and numbers
	tw.w.Write(b)
}

func (tw *traceWriter) lane(name string) int {
	if tid, ok := tw.lanes[name]; ok {
		return tid
	}
	tid := len(tw.lanes)
	tw.lanes[name] = tid
	tw.emit(obs.TraceEvent{Name: "thread_name", Ph: "M", PID: 1, TID: tid, Args: map[string]string{"name": name}})
	return tid
}

func (tw *traceWriter) span(lane, name, id, parent string, start, end time.Time, args map[string]string) {
	if args == nil {
		args = map[string]string{}
	}
	args["id"] = id
	if parent != "" {
		args["parent"] = parent
	}
	tw.emit(obs.TraceEvent{
		Name: name, Cat: "bench", Ph: "X",
		TS:  float64(start.Sub(tw.t0)) / float64(time.Microsecond),
		Dur: float64(end.Sub(start)) / float64(time.Microsecond),
		PID: 1, TID: tw.lane(lane), Args: args,
	})
}

// writeTrace writes the traced run's spans. Each job is a root span whose id
// is the job ID, on its client's lane; its children split it end to end:
// submit (POST sent to job created), queue, run, and stream-tail (job
// finished to DoneEvent parsed). The server's cell spans of the first
// traceCellJobs jobs, on their owners' lanes, are children of run. The
// direct calls have a root of their own.
// A span's self time is its duration minus the part its children cover.
func writeTrace(path string, t0 time.Time, recs []jobRecord, stages []stageSpan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tw := &traceWriter{t0: t0, lanes: map[string]int{}, w: bufio.NewWriter(f)}
	tw.w.WriteString("[\n")
	for _, rec := range recs {
		lane, id := "client-"+strconv.Itoa(rec.client), rec.id
		phases := rec.phases()
		tw.span(lane, "job "+id, id, "", rec.sent, rec.done, nil)
		for k, name := range phaseNames {
			var args map[string]string
			if name == "run" {
				args = map[string]string{"self_us": strconv.FormatFloat(
					float64(rec.runSelf)/float64(time.Microsecond), 'f', 3, 64)}
			}
			tw.span(lane, name, id+"/"+name, id, phases[k], phases[k+1], args)
		}
		for k, sp := range rec.spans {
			tw.span(sp.owner, sp.name, id+"/cell-"+strconv.Itoa(k), id+"/run", sp.start, sp.end, map[string]string{
				"owner": sp.owner, "source": sp.source,
			})
		}
	}
	if len(stages) > 0 {
		tw.span("direct", "direct calls", "direct", "", stages[0].start, stages[len(stages)-1].end, nil)
		for _, s := range stages {
			tw.span("direct", s.name, "direct/"+s.name, "direct", s.start, s.end, nil)
		}
	}
	tw.w.WriteString("\n]\n")
	if err := tw.w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
