package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultDurationBuckets are the histogram bounds (seconds) used for
// queue-wait and eval-duration histograms: decades from 1µs to 100s,
// spanning a table-driven behavioral multiply up to a worst-case golden
// SPICE corner.
var DefaultDurationBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100,
}

// Registry holds a run's metric families and renders them in Prometheus
// text exposition format. Registration is idempotent per (name, label set)
// so layers can be re-wired (a test reopening a store, EngineFor building
// a second engine) without double counting; a GaugeFunc re-registered for
// an existing series replaces the previous function (last owner wins).
// A counter series may also read counts its owners keep themselves
// (CounterOf), so a component's Stats and the registry share one home per
// count. All methods are nil-safe: a nil *Registry registers nothing and
// returns nil instruments whose methods are in turn no-ops.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name, help, kind string // kind: counter | gauge | histogram
	series           map[string]*series
}

type series struct {
	labels string // rendered {k="v",...} or ""

	val  atomic.Uint64 // float64 bits: a Counter's or Gauge's own total
	hist *Histogram    // histogram families only

	mu   sync.Mutex
	srcs map[*atomic.Uint64]struct{} // owner counts attached by CounterOf
	fn   func() float64              // GaugeFunc; replaces val when set
}

// value reads a counter or gauge series: its GaugeFunc when it has one,
// otherwise its own Add/Set total plus the sum of its attached counts. fn
// runs with no lock held, so it may take its owner's locks.
func (s *series) value() float64 {
	s.mu.Lock()
	fn := s.fn
	var n uint64
	for src := range s.srcs {
		n += src.Load()
	}
	s.mu.Unlock()
	if fn != nil {
		return fn()
	}
	return math.Float64frombits(s.val.Load()) + float64(n)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: map[string]*family{}} }

// labelKey renders alternating key,value pairs as a deterministic
// Prometheus label block, sorted by key. Odd trailing keys are dropped.
func labelKey(kv []string) string {
	if len(kv) < 2 {
		return ""
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// seriesFor returns the series for (name, labels), creating family and
// series as needed. A name reused with a different kind panics: that is a
// programming error, not a runtime condition.
func (r *Registry) seriesFor(name, help, kind string, labels []string) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	lk := labelKey(labels)
	s := f.series[lk]
	if s == nil {
		s = &series{labels: lk}
		f.series[lk] = s
	}
	return s
}

// Counter is a monotonically increasing float64. Methods on a nil Counter
// are no-ops.
type Counter struct{ s *series }

// Counter registers (or finds) a counter series. labels are alternating
// key, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{s: r.seriesFor(name, help, "counter", labels)}
}

// CounterOf registers (or finds) a counter series and attaches v to it: the
// series reads v at scrape time, so an owner that keeps its own count (for
// its Stats) needs no mirrored Add. A series reports its own Add total plus
// the sum of every attached count — two engines on one recorder add up, and
// a store reopened on the recorder continues where its predecessor stopped.
// Attaching the same pointer twice is a no-op. The series keeps v alive, so
// owners allocate their counts apart from their larger state.
func (r *Registry) CounterOf(name, help string, v *atomic.Uint64, labels ...string) {
	if r == nil {
		return
	}
	s := r.seriesFor(name, help, "counter", labels)
	s.mu.Lock()
	if s.srcs == nil {
		s.srcs = map[*atomic.Uint64]struct{}{}
	}
	s.srcs[v] = struct{}{}
	s.mu.Unlock()
}

// Add increments the counter by delta (negative deltas are ignored —
// counters only go up).
func (c *Counter) Add(delta float64) {
	if c == nil || delta < 0 {
		return
	}
	addFloat(&c.s.val, delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the counter's current value, attached counts included (0
// for nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.s.value()
}

// Gauge is a float64 that can go up and down. Methods on a nil Gauge are
// no-ops.
type Gauge struct{ s *series }

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{s: r.seriesFor(name, help, "gauge", labels)}
}

// Set sets the gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.s.val.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	addFloat(&g.s.val, delta)
}

// Value returns the gauge's current value — its GaugeFunc's, when one is
// registered (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.s.value()
}

// GaugeFunc registers a gauge series whose value is read from fn at
// scrape time — for values a subsystem already tracks (hub subscriber
// counts, store segment bytes) where mirroring into a Gauge would race
// the truth. fn must be safe to call from any goroutine; it is invoked
// with no registry lock held, so it may take the owning subsystem's lock.
// Re-registering an existing series replaces fn; Gauge.Value on the
// series reads fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	s := r.seriesFor(name, help, "gauge", labels)
	s.mu.Lock()
	s.fn = fn
	s.mu.Unlock()
}

// Histogram is a fixed-bucket distribution with cumulative bucket counts,
// a sum, and a count, rendered Prometheus-style. Methods on a nil
// Histogram are no-ops.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last = +Inf
	sum    atomic.Uint64   // float64 bits
	total  atomic.Uint64
}

// Histogram registers (or finds) a histogram series. buckets must be
// sorted ascending; nil means DefaultDurationBuckets. Bounds are fixed at
// first registration.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	s := r.seriesFor(name, help, "histogram", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		if buckets == nil {
			buckets = DefaultDurationBuckets
		}
		bounds := make([]float64, len(buckets))
		copy(bounds, buckets)
		s.hist = &Histogram{
			bounds: bounds,
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
	}
	return s.hist
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	addFloat(&h.sum, v)
}

// Count returns the number of samples observed (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observed samples (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// addFloat adds delta to a float64 stored as uint64 bits, lock-free.
func addFloat(u *atomic.Uint64, delta float64) {
	for {
		old := u.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if u.CompareAndSwap(old, next) {
			return
		}
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// snapshotSeries is one renderable series captured under the registry
// lock; values are read after release so GaugeFuncs may take their owning
// subsystem's locks.
type snapshotSeries struct {
	labels string
	s      *series
}

type snapshotFamily struct {
	name, help, kind string
	series           []snapshotSeries
}

func (r *Registry) snapshot() []snapshotFamily {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]snapshotFamily, 0, len(r.families))
	for _, f := range r.families {
		sf := snapshotFamily{name: f.name, help: f.help, kind: f.kind}
		for _, s := range f.series {
			sf.series = append(sf.series, snapshotSeries{labels: s.labels, s: s})
		}
		sort.Slice(sf.series, func(i, j int) bool {
			return sf.series[i].labels < sf.series[j].labels
		})
		fams = append(fams, sf)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): families sorted by name, series sorted by
// rendered labels, one HELP and TYPE line per family. Nil-safe (writes
// nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, f := range r.snapshot() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, f.help, f.name, f.kind); err != nil {
			return fmt.Errorf("obs: write exposition: %w", err)
		}
		for _, ss := range f.series {
			if err := writeSeries(w, f, ss); err != nil {
				return fmt.Errorf("obs: write exposition: %w", err)
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f snapshotFamily, ss snapshotSeries) error {
	switch {
	case f.kind == "histogram" && ss.s.hist != nil:
		h := ss.s.hist
		cum := uint64(0)
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s%s %d\n",
				f.name+"_bucket", mergeLabels(ss.labels, "le", formatFloat(b)), cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s%s %d\n",
			f.name+"_bucket", mergeLabels(ss.labels, "le", "+Inf"), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, ss.labels, formatFloat(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, ss.labels, cum)
		return err
	default:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, ss.labels, formatFloat(ss.s.value()))
		return err
	}
}

// mergeLabels inserts one extra label into an already-rendered block —
// the histogram's le bound.
func mergeLabels(rendered, k, v string) string {
	extra := k + `="` + escapeLabel(v) + `"`
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

// Sample is one named value for the CLIs' end-of-run telemetry table.
type Sample struct {
	Name  string
	Value float64
}

// Samples flattens the registry into (name, value) rows sorted by name:
// counters and gauges as-is, histograms as _count and _sum. Rows with a
// zero value are omitted — the CLI table shows what happened, not the
// whole schema. Nil-safe (returns nil).
func (r *Registry) Samples() []Sample {
	if r == nil {
		return nil
	}
	var out []Sample
	for _, f := range r.snapshot() {
		for _, ss := range f.series {
			switch {
			case f.kind == "histogram" && ss.s.hist != nil:
				h := ss.s.hist
				if c := h.Count(); c > 0 {
					out = append(out, Sample{f.name + "_count" + ss.labels, float64(c)})
					out = append(out, Sample{f.name + "_sum" + ss.labels, h.Sum()})
				}
			default:
				if v := ss.s.value(); v != 0 {
					out = append(out, Sample{f.name + ss.labels, v})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
