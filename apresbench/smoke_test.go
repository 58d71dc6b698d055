package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// declared is the part of BENCHMARK.json the smoke test checks against.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload once, tiny and short, traced and untraced,
// and checks that the result line parses and reports exactly the metrics
// BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	for _, w := range decl.Workloads {
		if workloadsByName[w.Name] == nil {
			t.Fatalf("BENCHMARK.json declares workload %q, which the benchmark lacks", w.Name)
		}
	}
	var names []string
	for name := range workloadsByName {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		for _, traced := range []bool{false, true} {
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
			}
			r := &run{workload: name, seed: 1, seconds: 1, trace: traced, tiny: true,
				root: "..", scratch: t.TempDir()}
			var out bytes.Buffer
			if err := execute(r, &out); err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s trace=%v: last line does not parse: %v", name, traced, err)
			}
			var keys []string
			for k := range rep {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
				t.Fatalf("%s trace=%v: result keys %v", name, traced, keys)
			}
			var res report
			json.Unmarshal([]byte(lines[len(lines)-1]), &res)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d (%s)", name, traced, res.Correct, res.Attempted, res.Failed, lines[0])
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, declared %q", name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
