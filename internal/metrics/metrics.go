// Package metrics is the simulator's live observability layer: a
// typed registry of named counters and gauges fed by the router
// pipeline and the two-phase cycle kernel, plus a bounded
// flit-lifecycle event tracer (trace.go) and an HTTP exporter
// (handler.go) serving the Prometheus text format.
//
// The layer is built around the kernel's ownership contract
// (DESIGN.md §10): hot-path code never touches shared state. Every
// shard-owned component (a router, its network interface, the links
// of its deliver plan) increments counters on a private Recorder —
// a plain slice, no atomics, no locks — and the network folds all
// recorders into the shared Registry serially, in recorder index
// order, during the commit side of the kernel (the sample cadence
// plus a final flush). Totals are therefore bit-identical for any
// worker count, and concurrent readers (the HTTP exporter, the
// Snapshot API) only ever take the registry lock, never a recorder.
//
// Disabled-path cost is a nil-pointer check per probe call
// (probe.go); enabled-path cost is amortized over the flush cadence.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Label is one key/value pair of a metric series. Labels are kept as
// ordered slices (not maps) so every rendering and snapshot of the
// registry is deterministic.
type Label struct {
	Key, Value string
}

// Labels is the ordered label set of one series.
type Labels []Label

// String renders the label set in Prometheus exposition syntax,
// without the surrounding braces; empty for an unlabeled series.
func (ls Labels) String() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel applies the Prometheus label-value escapes.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// CounterID names one counter series within its Recorder.
type CounterID int

// GaugeID names one gauge series within the Registry.
type GaugeID int

// seriesDesc describes one registered series.
type seriesDesc struct {
	name   string
	help   string
	labels Labels
}

// Registry holds the merged totals of every registered series. All
// mutation goes through MergeRecorders and SetGauge — serial-phase
// operations — while Snapshot and WritePrometheus may be called from
// any goroutine (the HTTP exporter's scrape path).
type Registry struct {
	mu       sync.RWMutex
	counters []seriesDesc
	cvals    []uint64
	gauges   []seriesDesc
	gvals    []float64
	// published maps counter series to the simulator counts they are
	// read from at each merge (Recorder.CounterFrom).
	published []publishedSeries
}

// publishedSeries is one counter series fed from a count the
// simulator keeps itself.
type publishedSeries struct {
	series int // registry counter index
	src    *uint64
}

// NewRegistry returns an empty registry. Register every series (via
// NewRecorder/Recorder.Counter and Gauge) at construction time,
// before the first concurrent reader.
func NewRegistry() *Registry { return &Registry{} }

// Gauge registers a gauge series and returns its ID.
func (r *Registry) Gauge(name, help string, labels Labels) GaugeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges = append(r.gauges, seriesDesc{name: name, help: help, labels: labels})
	r.gvals = append(r.gvals, 0)
	return GaugeID(len(r.gauges) - 1)
}

// SetGauge stores the gauge's current value. Serial phase only.
func (r *Registry) SetGauge(id GaugeID, v float64) {
	r.mu.Lock()
	r.gvals[id] = v
	r.mu.Unlock()
}

// Recorder is the single-writer staging area of one shard-owned
// component. Counter increments touch only the recorder's private
// slices; MergeRecorders folds them into the registry. A recorder
// must only ever be written by the shard that owns its component —
// the kernel's phase barriers order those writes against the serial
// merge.
type Recorder struct {
	reg    *Registry
	ids    []int // registry counter index per local CounterID
	counts []uint64
	trace  bool
	events []Event
}

// NewRecorder returns a recorder whose counters will merge into r.
// trace enables flit-event staging (StageEvent is a no-op otherwise).
func (r *Registry) NewRecorder(trace bool) *Recorder {
	return &Recorder{reg: r, trace: trace}
}

// Counter registers a counter series owned by this recorder and
// returns the recorder-local ID used with Inc/Add.
func (rec *Recorder) Counter(name, help string, labels Labels) CounterID {
	reg := rec.reg
	reg.mu.Lock()
	reg.counters = append(reg.counters, seriesDesc{name: name, help: help, labels: labels})
	reg.cvals = append(reg.cvals, 0)
	global := len(reg.counters) - 1
	reg.mu.Unlock()
	rec.ids = append(rec.ids, global)
	rec.counts = append(rec.counts, 0)
	return CounterID(len(rec.counts) - 1)
}

// CounterFrom registers a counter series whose total is a count the
// simulator already keeps at src — a router's stats.Counters field, a
// link's flit or fault tally — instead of a second copy staged on the
// hot path: MergeRecorders stores *src into the series as an absolute
// total after folding the staged deltas. The series still takes a
// (never incremented) staging slot on the recorder, so checkpoint
// layout does not depend on how a series is fed, and a delta staged
// by an older checkpoint is overwritten at the first merge. src must
// outlive the registry and is read only in the serial phase.
func (rec *Recorder) CounterFrom(name, help string, labels Labels, src *uint64) {
	id := rec.Counter(name, help, labels)
	reg := rec.reg
	reg.mu.Lock()
	reg.published = append(reg.published, publishedSeries{series: rec.ids[id], src: src})
	reg.mu.Unlock()
}

// Inc adds one to the counter. Owner shard only; never allocates.
func (rec *Recorder) Inc(id CounterID) { rec.counts[id]++ }

// Add accumulates n into the counter. Owner shard only.
func (rec *Recorder) Add(id CounterID, n uint64) { rec.counts[id] += n }

// StageEvent appends a flit-lifecycle event to the recorder's staging
// buffer (a no-op when the recorder was created without tracing).
// The event's Seq is assigned later, when the tracer drains the
// recorder in the serial phase.
func (rec *Recorder) StageEvent(e Event) {
	if !rec.trace {
		return
	}
	//vichar:alloc the staging buffer grows to the per-tick event peak, then Drain resets it to length zero in place
	rec.events = append(rec.events, e)
}

// Pending returns the number of staged, undrained events (tests).
func (rec *Recorder) Pending() int { return len(rec.events) }

// MergeRecorders folds every recorder's staged counter deltas into
// the registry, in slice order, and zeroes the staging counts; then it
// stores every CounterFrom series' source count, all under one lock
// acquisition. Must run in the kernel's serial phase; the fixed merge
// order is what keeps registry state bit-identical across worker
// counts.
func (r *Registry) MergeRecorders(recs []*Recorder) {
	r.mu.Lock()
	for _, rec := range recs {
		for i, v := range rec.counts {
			if v != 0 {
				r.cvals[rec.ids[i]] += v
				rec.counts[i] = 0
			}
		}
	}
	for _, p := range r.published {
		r.cvals[p.series] = *p.src
	}
	r.mu.Unlock()
}

// CounterValue is one counter series with its merged total.
type CounterValue struct {
	Name   string
	Labels Labels
	Value  uint64
}

// GaugeValue is one gauge series with its current value.
type GaugeValue struct {
	Name   string
	Labels Labels
	Value  float64
}

// Snapshot is a consistent copy of the registry at one merge point.
type Snapshot struct {
	Counters []CounterValue
	Gauges   []GaugeValue
}

// Sum totals every counter series with the given name across labels
// (e.g. the network-wide buffer writes over all routers and ports).
func (s Snapshot) Sum(name string) uint64 {
	var total uint64
	for _, c := range s.Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}

// Gauge returns the first gauge with the given name (ok=false when
// absent).
func (s Snapshot) Gauge(name string) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// Snapshot copies the registry's current series and values. Safe for
// concurrent use; the copy reflects the last serial merge, which lags
// a running simulation by at most the flush cadence.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters: make([]CounterValue, len(r.counters)),
		Gauges:   make([]GaugeValue, len(r.gauges)),
	}
	for i, d := range r.counters {
		s.Counters[i] = CounterValue{Name: d.name, Labels: d.labels, Value: r.cvals[i]}
	}
	for i, d := range r.gauges {
		s.Gauges[i] = GaugeValue{Name: d.name, Labels: d.labels, Value: r.gvals[i]}
	}
	return s
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format: series grouped by name under one HELP/TYPE
// header, names in lexical order, label sets in registration order
// within a name — a deterministic rendering of a deterministic state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	type row struct {
		desc  string // name{labels}
		value string
	}
	groups := map[string][]row{}
	helps := map[string]string{}
	types := map[string]string{}
	var names []string
	add := func(name, help, typ string, labels Labels, value string) {
		if _, seen := groups[name]; !seen {
			names = append(names, name)
			helps[name] = help
			types[name] = typ
		}
		desc := name
		if ls := labels.String(); ls != "" {
			desc = name + "{" + ls + "}"
		}
		groups[name] = append(groups[name], row{desc: desc, value: value})
	}
	r.mu.RLock()
	for i, d := range r.counters {
		add(d.name, d.help, "counter", d.labels, fmt.Sprintf("%d", s.Counters[i].Value))
	}
	for i, d := range r.gauges {
		add(d.name, d.help, "gauge", d.labels, formatFloat(s.Gauges[i].Value))
	}
	r.mu.RUnlock()
	sort.Strings(names)
	for _, name := range names {
		if h := helps[name]; h != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, h); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, types[name]); err != nil {
			return err
		}
		for _, rw := range groups[name] {
			if _, err := fmt.Fprintf(w, "%s %s\n", rw.desc, rw.value); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatFloat renders a gauge value without exponent noise for the
// integral values (cycle counts) that dominate the gauge set.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
