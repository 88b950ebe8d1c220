package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name/value dimension of a metric series ("worker"="w-000001").
type Label struct {
	Key, Value string
}

// Registry is a named collection of metric families, each holding one series
// per distinct label set. Getter calls are get-or-create: the first call for
// a (name, labels) pair mints the series, later calls return the same
// instance — so callers hold onto the cheap atomic handle and never touch
// the registry lock on the hot path. A nil Registry returns nil metrics from
// every getter, and nil metrics ignore writes: instrumentation against an
// absent registry is free.
//
// WritePrometheus renders every family in the text exposition format
// (sorted by family name, then label signature), which GET /v1/metrics
// serves.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name, help, typ string // typ: "counter", "gauge" or "histogram"
	series          map[string]any
}

// NewRegistry returns an empty metric registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelKey renders labels as a canonical `k="v",k2="v2"` signature, sorted
// by key — the series identity inside a family, and the exposition form.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// get returns the series for (name, labels), creating family and series on
// first use with mk. A name reused with a different metric type is a
// programming error and panics.
func (r *Registry) get(name, help, typ string, labels []Label, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: map[string]any{}}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	key := labelKey(labels)
	s, ok := f.series[key]
	if !ok {
		s = mk()
		f.series[key] = s
	}
	return s
}

// Counter returns the counter series for (name, labels), registering it on
// first use. Returns nil on a nil Registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, help, "counter", labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge series for (name, labels), registering it on
// first use. Returns nil on a nil Registry.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, help, "gauge", labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram series for (name, labels), registering it
// on first use (nil bounds select DefBuckets; the bounds of the first
// registration win). Returns nil on a nil Registry.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, help, "histogram", labels, func() any { return NewHistogram(bounds) }).(*Histogram)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, each with its # HELP and
// # TYPE lines, series sorted by label signature. Safe to call while
// metrics are being written — counters and gauges are read atomically
// (histogram bucket sums may be mid-update by at most the in-flight
// observations, which the format tolerates).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	// Snapshot each series with its key under the lock: a getter minting a
	// series inserts into the same map. The metric values themselves are
	// atomic and rendered outside it.
	type keyed struct {
		key    string
		series any
	}
	type snap struct {
		fam    *family
		series []keyed
	}
	snaps := make([]snap, len(names))
	for i, n := range names {
		f := r.families[n]
		series := make([]keyed, 0, len(f.series))
		for k, s := range f.series {
			series = append(series, keyed{k, s})
		}
		sort.Slice(series, func(a, b int) bool { return series[a].key < series[b].key })
		snaps[i] = snap{fam: f, series: series}
	}
	r.mu.Unlock()

	for _, s := range snaps {
		f := s.fam
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, ks := range s.series {
			if err := writeSeries(w, f.name, ks.key, ks.series); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, name, key string, series any) error {
	wrap := func(extra string) string {
		switch {
		case key == "" && extra == "":
			return ""
		case key == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + key + "}"
		default:
			return "{" + key + "," + extra + "}"
		}
	}
	switch m := series.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, wrap(""), m.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, wrap(""), m.Value())
		return err
	case *Histogram:
		cum := int64(0)
		for i := range m.counts {
			cum += m.counts[i].Load()
			le := "+Inf"
			if i < len(m.bounds) {
				le = formatFloat(m.bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, wrap(`le="`+le+`"`), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, wrap(""), formatFloat(m.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, wrap(""), m.Count())
		return err
	}
	return fmt.Errorf("obs: unknown series type %T", series)
}
