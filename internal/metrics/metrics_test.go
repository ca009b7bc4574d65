package metrics

import (
	"net/http/httptest"
	"strings"
	"testing"

	"vichar/internal/stats"
)

func TestRegistryMergeAndSnapshot(t *testing.T) {
	reg := NewRegistry()
	a := reg.NewRecorder(false)
	b := reg.NewRecorder(false)
	ca := a.Counter("m_total", "help a", Labels{{"node", "0"}})
	cb := b.Counter("m_total", "help a", Labels{{"node", "1"}})
	other := b.Counter("other_total", "help b", nil)

	a.Inc(ca)
	a.Add(ca, 4)
	b.Inc(cb)
	b.Add(other, 7)

	// Nothing visible before the serial merge.
	if got := reg.Snapshot().Sum("m_total"); got != 0 {
		t.Fatalf("pre-merge sum = %d, want 0", got)
	}
	reg.MergeRecorders([]*Recorder{a, b})
	s := reg.Snapshot()
	if got := s.Sum("m_total"); got != 6 {
		t.Fatalf("m_total = %d, want 6", got)
	}
	if got := s.Sum("other_total"); got != 7 {
		t.Fatalf("other_total = %d, want 7", got)
	}

	// Merging is a drain: a second merge with no new increments must
	// not double-count.
	reg.MergeRecorders([]*Recorder{a, b})
	if got := reg.Snapshot().Sum("m_total"); got != 6 {
		t.Fatalf("after idempotent merge m_total = %d, want 6", got)
	}

	a.Inc(ca)
	reg.MergeRecorders([]*Recorder{a, b})
	if got := reg.Snapshot().Sum("m_total"); got != 7 {
		t.Fatalf("after second increment m_total = %d, want 7", got)
	}
}

// A CounterFrom series mirrors its source count as an absolute total
// at every merge: no staging, no double counting, and a delta left in
// its staging slot (as restored from an older checkpoint) is
// overwritten rather than added.
func TestCounterFromPublishesSource(t *testing.T) {
	reg := NewRegistry()
	rec := reg.NewRecorder(false)
	staged := rec.Counter("staged_total", "", nil)
	var src uint64
	rec.CounterFrom("pub_total", "published", Labels{{"node", "0"}}, &src)
	recs := []*Recorder{rec}

	src = 5
	rec.Inc(staged)
	reg.MergeRecorders(recs)
	s := reg.Snapshot()
	if got := s.Sum("pub_total"); got != 5 {
		t.Fatalf("pub_total = %d, want source 5", got)
	}
	if got := s.Sum("staged_total"); got != 1 {
		t.Fatalf("staged_total = %d, want 1", got)
	}
	reg.MergeRecorders(recs)
	if got := reg.Snapshot().Sum("pub_total"); got != 5 {
		t.Fatalf("after idle merge pub_total = %d, want 5", got)
	}
	src = 9
	rec.counts[1] = 100 // a stale staged delta
	reg.MergeRecorders(recs)
	if got := reg.Snapshot().Sum("pub_total"); got != 9 {
		t.Fatalf("pub_total = %d, want source 9", got)
	}
}

func TestGauges(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("g_now", "current cycle", nil)
	reg.SetGauge(g, 42)
	v, ok := reg.Snapshot().Gauge("g_now")
	if !ok || v != 42 {
		t.Fatalf("gauge = (%g, %v), want (42, true)", v, ok)
	}
	if _, ok := reg.Snapshot().Gauge("missing"); ok {
		t.Fatal("missing gauge reported present")
	}
}

// The disabled path (nil probes) and the enabled steady-state path
// (recorder increments, event staging after the rings warmed up) must
// not allocate: the instrumentation sits on the router's per-cycle
// hot path.
func TestHotPathDoesNotAllocate(t *testing.T) {
	var nilProbe *RouterProbe
	if n := testing.AllocsPerRun(1000, func() {
		nilProbe.BufferWrite(0)
		nilProbe.RC()
		nilProbe.Event(EvRC, 1, 0, 1, -1, -1, 0)
	}); n != 0 {
		t.Fatalf("nil probe path allocates %.1f/op", n)
	}

	reg := NewRegistry()
	rec := reg.NewRecorder(true)
	var counts stats.Counters
	probe := NewRouterProbe(rec, 0, []string{"N", "S", "E", "W", "L"}, &counts)
	tr := NewTracer(reg, 64)
	recs := []*Recorder{rec}
	// Warm the staging slice and the ring once.
	for i := 0; i < 100; i++ {
		probe.Event(EvRC, int64(i), 0, uint64(i), -1, -1, 0)
	}
	reg.MergeRecorders(recs)
	tr.Drain(recs)
	if n := testing.AllocsPerRun(1000, func() {
		probe.BufferWrite(2)
		probe.SADenials(1)
		counts.SAOps++
		probe.Event(EvSAGrant, 5, 0, 9, 0, 1, 2)
		reg.MergeRecorders(recs)
		tr.Drain(recs)
	}); n != 0 {
		t.Fatalf("enabled steady-state path allocates %.1f/op", n)
	}
}

func TestTracerRingAndTimeline(t *testing.T) {
	reg := NewRegistry()
	rec := reg.NewRecorder(true)
	tr := NewTracer(reg, 4)
	for i := 0; i < 6; i++ {
		rec.StageEvent(Event{Cycle: int64(i), Kind: EvLink, Packet: uint64(i % 2), Flit: 0, Node: i})
	}
	tr.Drain([]*Recorder{rec})
	if rec.Pending() != 0 {
		t.Fatalf("drain left %d staged events", rec.Pending())
	}
	if tr.Total() != 6 || tr.Dropped() != 2 {
		t.Fatalf("total/dropped = %d/%d, want 6/2", tr.Total(), tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want ring capacity 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(2 + i); e.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (oldest evicted first)", i, e.Seq, want)
		}
	}
	tl := tr.Timeline(1)
	if len(tl) != 2 || tl[0].Seq != 3 || tl[1].Seq != 5 {
		t.Fatalf("timeline(1) = %+v, want retained seqs 3 and 5", tl)
	}
}

func TestTracerSeqOrderAcrossRecorders(t *testing.T) {
	reg := NewRegistry()
	r1 := reg.NewRecorder(true)
	r2 := reg.NewRecorder(true)
	tr := NewTracer(reg, 16)
	r2.StageEvent(Event{Cycle: 1, Kind: EvInject, Node: 2})
	r1.StageEvent(Event{Cycle: 1, Kind: EvInject, Node: 1})
	tr.Drain([]*Recorder{r1, r2})
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Node != 1 || evs[1].Node != 2 {
		t.Fatalf("drain order not recorder-index order: %+v", evs)
	}
}

func TestWriteJSONL(t *testing.T) {
	reg := NewRegistry()
	rec := reg.NewRecorder(true)
	tr := NewTracer(reg, 8)
	rec.StageEvent(Event{Cycle: 3, Kind: EvEject, Packet: 7, Flit: 1, Node: 4, Port: -1, VC: 0})
	tr.Drain([]*Recorder{rec})
	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	want := `{"seq":0,"cycle":3,"kind":"eject","packet":7,"flit":1,"node":4,"port":-1,"vc":0}` + "\n"
	if b.String() != want {
		t.Fatalf("JSONL = %q, want %q", b.String(), want)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	rec := reg.NewRecorder(false)
	c := rec.Counter("vichar_z_total", "the z metric", Labels{{"router", "3"}, {"port", "N"}})
	reg.Gauge("vichar_a_gauge", "the a gauge", nil)
	rec.Add(c, 12)
	reg.MergeRecorders([]*Recorder{rec})

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := "# HELP vichar_a_gauge the a gauge\n" +
		"# TYPE vichar_a_gauge gauge\n" +
		"vichar_a_gauge 0\n" +
		"# HELP vichar_z_total the z metric\n" +
		"# TYPE vichar_z_total counter\n" +
		`vichar_z_total{router="3",port="N"} 12` + "\n"
	if got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestHandlerServesMetricsAndTrace(t *testing.T) {
	reg := NewRegistry()
	rec := reg.NewRecorder(true)
	c := rec.Counter("vichar_h_total", "handler test", nil)
	tr := NewTracer(reg, 8)
	rec.Inc(c)
	rec.StageEvent(Event{Cycle: 1, Kind: EvCreate, Packet: 1, Flit: -1, Node: 0, Port: -1, VC: -1})
	reg.MergeRecorders([]*Recorder{rec})
	tr.Drain([]*Recorder{rec})

	srv := httptest.NewServer(Handler(reg, tr))
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := resp.Body.Close(); err != nil {
				t.Fatal(err)
			}
		}()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String()
	}

	if body := get("/"); !strings.Contains(body, "vichar_h_total 1") {
		t.Fatalf("metrics body missing counter:\n%s", body)
	}
	if body := get("/trace"); !strings.Contains(body, `"kind":"create"`) {
		t.Fatalf("trace body missing event:\n%s", body)
	}
}
