package network

import (
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"vichar/internal/config"
	"vichar/internal/metrics"
)

// obsConfig is a small mesh run with the full observability layer on.
func obsConfig() *config.Config {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.InjectionRate = 0.25
	cfg.WarmupPackets = 30
	cfg.MeasurePackets = 200
	cfg.Seed = 77
	cfg.Metrics = true
	cfg.TraceEvents = 1 << 16
	return &cfg
}

// The registry's cumulative totals must reconcile exactly with the
// network's own accounting: the per-router stats.Counters sums and
// the per-link traversal and fault counts the power model is built
// on. The faulted, minimal-adaptive ViChaR case drives the series a
// fault-free XY run leaves at zero: escape reroutes, port stalls and
// link drops, corruptions and retransmissions.
func TestMetricsReconcileWithCounters(t *testing.T) {
	faulted := obsConfig()
	faulted.Arch = config.ViChaR
	faulted.Routing = config.MinimalAdaptive
	faulted.InjectionRate = 0.4
	faulted.DeadlockThreshold = 8
	faulted.Faults = config.FaultsConfig{
		Seed:        3,
		DropRate:    0.005,
		CorruptRate: 0.003,
		StallRate:   0.002,
	}
	for _, tc := range []struct {
		name string
		cfg  *config.Config
	}{
		{"generic-xy", obsConfig()},
		{"vichar-adaptive-faults", faulted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkMetricsReconcile(t, tc.cfg)
		})
	}
}

func checkMetricsReconcile(t *testing.T, cfg *config.Config) {
	t.Helper()
	faulted := cfg.Faults.Enabled()
	n := New(cfg)
	defer n.Close()
	res := n.Run()

	s := n.Metrics().Snapshot()
	total := n.totalCounters()
	var faultTotal struct{ drops, corrupts, retransmits uint64 }
	for _, fs := range n.faultLinks {
		faultTotal.drops += fs.Drops
		faultTotal.corrupts += fs.Corrupts
		faultTotal.retransmits += fs.Retransmits
	}
	for _, c := range []struct {
		name    string
		want    uint64
		nonzero bool // must be exercised by the faulted case
	}{
		{"vichar_buffer_writes_total", total.BufferWrites, false},
		{"vichar_buffer_reads_total", total.BufferReads, false},
		{"vichar_xbar_traversals_total", total.XbarTraversals, false},
		{"vichar_link_flits_total", total.LinkTraversals, false},
		{"vichar_va_ops_total", total.VAOps, false},
		{"vichar_sa_ops_total", total.SAOps, false},
		{"vichar_va_grants_total", total.VCGrants, false},
		{"vichar_sa_grants_total", total.XbarTraversals, false},
		{"vichar_escape_reroutes_total", total.EscapeReroutes, true},
		{"vichar_port_stall_cycles_total", total.StallCycles, true},
		{"vichar_link_flits_dropped_total", faultTotal.drops, true},
		{"vichar_link_flits_corrupted_total", faultTotal.corrupts, true},
		{"vichar_link_retransmits_total", faultTotal.retransmits, true},
	} {
		if got := s.Sum(c.name); got != c.want {
			t.Errorf("%s = %d, want %d (network accounting)", c.name, got, c.want)
		}
		if faulted && c.nonzero && c.want == 0 {
			t.Errorf("%s is zero: the faulted case does not exercise it", c.name)
		}
	}
	if faulted {
		if total.FlitDrops != faultTotal.drops || total.FlitCorrupts != faultTotal.corrupts ||
			total.Retransmits != faultTotal.retransmits {
			t.Errorf("totalCounters fault tallies %d/%d/%d, want per-link sums %d/%d/%d",
				total.FlitDrops, total.FlitCorrupts, total.Retransmits,
				faultTotal.drops, faultTotal.corrupts, faultTotal.retransmits)
		}
	}
	if got := s.Sum("vichar_packets_ejected_total"); got != uint64(res.EjectedPackets) {
		t.Errorf("packets_ejected = %d, want %d", got, res.EjectedPackets)
	}
	if got := s.Sum("vichar_packets_created_total"); got != uint64(n.CreatedPackets()) {
		t.Errorf("packets_created = %d, want %d", got, n.CreatedPackets())
	}
	if cyc, ok := s.Gauge("vichar_cycle"); !ok || cyc != float64(res.TotalCycles) {
		t.Errorf("cycle gauge = %g, want %d", cyc, res.TotalCycles)
	}
	if inflight, ok := s.Gauge("vichar_packets_inflight"); !ok ||
		inflight != float64(n.CreatedPackets()-res.EjectedPackets) {
		t.Errorf("inflight gauge = %g, want %d", inflight, n.CreatedPackets()-res.EjectedPackets)
	}
	// Per-port buffer writes must also sum to the same total as the
	// unlabeled reconciliation above, i.e. labels partition the count.
	perPort := uint64(0)
	for _, cv := range s.Counters {
		if cv.Name == "vichar_buffer_writes_total" {
			perPort += cv.Value
		}
	}
	if perPort != total.BufferWrites {
		t.Errorf("per-port buffer writes sum %d, want %d", perPort, total.BufferWrites)
	}
}

// A scrape of the live HTTP handler must reconcile with the final
// stats.Results — the acceptance criterion for -metrics-addr.
func TestMetricsHandlerReconcilesWithResults(t *testing.T) {
	cfg := obsConfig()
	n := New(cfg)
	defer n.Close()
	res := n.Run()

	srv := httptest.NewServer(metrics.Handler(n.Metrics(), n.FlitTracer()))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}

	series := map[string]uint64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable exposition line %q", line)
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue // gauges with fractional values are not summed here
		}
		series[name] += uint64(v)
	}
	if got := series["vichar_packets_ejected_total"]; got != uint64(res.EjectedPackets) {
		t.Errorf("scraped packets_ejected = %d, want Results.EjectedPackets %d", got, res.EjectedPackets)
	}
	if got := series["vichar_flits_ejected_total"]; got == 0 {
		t.Error("scraped flits_ejected = 0")
	}
	if got := series["vichar_cycle"]; got != uint64(res.TotalCycles) {
		t.Errorf("scraped cycle = %d, want Results.TotalCycles %d", got, res.TotalCycles)
	}
}

// Every packet's retained event timeline must be internally
// consistent: cycles non-decreasing, starting with create and ending
// with the tail's ejection, with per-flit stages in pipeline order.
func TestFlitTimelineReconstruction(t *testing.T) {
	cfg := obsConfig()
	cfg.WarmupPackets = 0
	cfg.MeasurePackets = 50
	n := New(cfg)
	defer n.Close()
	n.Run()

	tr := n.FlitTracer()
	if tr.Total() == 0 {
		t.Fatal("tracer recorded no events")
	}
	// Pick a packet whose full lifecycle is retained: the ring holds
	// the newest events, so walk backwards from the end for a
	// timeline that starts with create.
	evs := tr.Events()
	checked := 0
	seen := map[uint64]bool{}
	for i := len(evs) - 1; i >= 0 && checked < 5; i-- {
		pkt := evs[i].Packet
		if seen[pkt] {
			continue
		}
		seen[pkt] = true
		tl := tr.Timeline(pkt)
		if tl[0].Kind != metrics.EvCreate {
			continue // truncated by the ring; try another packet
		}
		checked++
		last := tl[0].Cycle
		ejects := 0
		for _, e := range tl[1:] {
			if e.Cycle < last {
				t.Fatalf("packet %d timeline goes backwards: %+v", pkt, tl)
			}
			last = e.Cycle
			if e.Kind == metrics.EvEject {
				ejects++
			}
		}
		if ejects == 0 {
			continue // still in flight at run end
		}
		if tl[len(tl)-1].Kind != metrics.EvEject {
			t.Fatalf("packet %d timeline does not end with ejection: %+v", pkt, tl)
		}
	}
	if checked == 0 {
		t.Fatal("no fully retained packet timeline found")
	}
}

// With observability off the network must not build any of the layer.
func TestMetricsDisabledByDefault(t *testing.T) {
	cfg := config.Default()
	cfg.Width, cfg.Height = 2, 2
	cfg.WarmupPackets = 2
	cfg.MeasurePackets = 10
	n := New(&cfg)
	defer n.Close()
	n.Run()
	if n.Metrics() != nil || n.FlitTracer() != nil {
		t.Fatal("observability layer built despite Metrics=false, TraceEvents=0")
	}
}
