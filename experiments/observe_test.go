package experiments

import (
	"strings"
	"testing"

	"vichar"
)

func TestObserveReport(t *testing.T) {
	cfg := vichar.DefaultConfig()
	cfg.Arch = vichar.ViChaR
	cfg.Width, cfg.Height = 4, 4
	cfg.InjectionRate = 0.25
	obs, err := Observe(cfg, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.Events) == 0 {
		t.Fatal("instrumented run retained no flit events")
	}
	rep := obs.Report()
	for _, want := range []string{
		"registry totals",
		"vichar_buffer_writes_total",
		"busiest links",
		"flit events retained",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}
