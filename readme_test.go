package crncompose

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// readmeUnits maps each unit README's "Benchmark numbers" table may print
// to the factor that converts the JSON field it quotes into that unit:
// ns_per_op is in ns, extra keys carry their unit in their name, and
// BENCH_e2e.json metrics carry theirs in "unit".
var readmeUnits = map[string]float64{
	"ms/op":         1e-6, // from ns_per_op
	"ns/step":       1,
	"configs":       1,
	"B/config":      1,
	"k configs/s":   1e-3,
	"M reactions/s": 1e-6,
	"×":             1, // a ratio
	"%":             100,
	"ops/s":         1,
	"ms":            1,
	"MB":            1,
}

// benchRow is one row of README's benchmark table: a number printed in a
// unit, and the JSON field it quotes.
type benchRow struct {
	file, record, value, field string
}

// readmeBenchRows returns the rows of every table in README's "Benchmark
// numbers" section.
func readmeBenchRows(t *testing.T) []benchRow {
	t.Helper()
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Benchmark numbers\n")
	if !ok {
		t.Fatal(`README.md has no "## Benchmark numbers" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var rows []benchRow
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|---") || strings.HasPrefix(line, "| file ") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 4 {
			t.Fatalf("table row has %d cells, want 4 (file, record, value, field): %s", len(cells), line)
		}
		for i := range cells {
			cells[i] = strings.Trim(strings.TrimSpace(cells[i]), "`")
		}
		rows = append(rows, benchRow{cells[0], cells[1], cells[2], cells[3]})
	}
	if len(rows) == 0 {
		t.Fatal("README's Benchmark numbers section has no table rows")
	}
	return rows
}

// engineReport is the part of a cmd/bench BENCH_*.json file the table reads.
type engineReport struct {
	Quick      bool `json:"quick"`
	NumCPU     int  `json:"num_cpu"`
	Benchmarks []struct {
		Name    string             `json:"name"`
		NsPerOp float64            `json:"ns_per_op"`
		Extra   map[string]float64 `json:"extra"`
	} `json:"benchmarks"`
}

// field returns the named field of the record called name: ns_per_op, or
// else a key of its extra map.
func (r engineReport) field(name, field string) (float64, error) {
	for _, b := range r.Benchmarks {
		if b.Name != name {
			continue
		}
		if field == "ns_per_op" {
			return b.NsPerOp, nil
		}
		if v, ok := b.Extra[field]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("record %s has no field %s", name, field)
	}
	return 0, fmt.Errorf("no record %s", name)
}

// e2eReport is BENCH_e2e.json: _perfbench runs, one process each, with the
// last line each printed kept verbatim as its result.
type e2eReport struct {
	NumCPU  int     `json:"num_cpu"`
	Seed    uint64  `json:"seed"`
	Seconds float64 `json:"seconds"`
	Runs    []struct {
		Workload string `json:"workload"`
		Trace    int    `json:"trace"`
		Command  string `json:"command"`
		Result   struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		} `json:"result"`
	} `json:"runs"`
}

// field returns metric field of the run named "<workload> trace=<0|1>".
func (r e2eReport) field(record, field string) (float64, error) {
	for _, run := range r.Runs {
		if fmt.Sprintf("%s trace=%d", run.Workload, run.Trace) != record {
			continue
		}
		m, ok := run.Result.Metrics[field]
		if !ok {
			return 0, fmt.Errorf("run %s has no metric %s", record, field)
		}
		return m.Value, nil
	}
	return 0, fmt.Errorf("no run %s", record)
}

func readJSON(t *testing.T, file string, v any) {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
}

// checkE2E asserts BENCH_e2e.json holds what README says it does: every
// workload untraced and traced, each run correct with nothing failed.
func checkE2E(t *testing.T, rep e2eReport) {
	t.Helper()
	if rep.NumCPU < 1 || rep.Seed == 0 || rep.Seconds < 12 {
		t.Errorf("BENCH_e2e.json: num_cpu %d, seed %d, seconds %g", rep.NumCPU, rep.Seed, rep.Seconds)
	}
	var got []string
	for _, run := range rep.Runs {
		name := fmt.Sprintf("%s trace=%d", run.Workload, run.Trace)
		got = append(got, name)
		want := fmt.Sprintf("bash _perfbench/run.sh --workload %s --seed %d --seconds %g --trace %d",
			run.Workload, rep.Seed, rep.Seconds, run.Trace)
		if run.Command != want {
			t.Errorf("BENCH_e2e.json %s: command %q, want %q", name, run.Command, want)
		}
		if !run.Result.Correct || run.Result.Failed != 0 || run.Result.Attempted == 0 {
			t.Errorf("BENCH_e2e.json %s: correct %v, %d of %d failed",
				name, run.Result.Correct, run.Result.Failed, run.Result.Attempted)
		}
	}
	var want []string
	for _, w := range []string{"check-hot", "check-cold", "jobs-local", "grid-dist"} {
		want = append(want, w+" trace=0", w+" trace=1")
	}
	if !slices.Equal(got, want) {
		t.Errorf("BENCH_e2e.json runs %v, want %v", got, want)
	}
}

// TestReadmeBenchNumbers pins README's "Benchmark numbers" table to the
// committed BENCH_*.json files: each row's value, at its printed precision,
// is the field its row names, so the README and the measurements cannot
// drift apart.
func TestReadmeBenchNumbers(t *testing.T) {
	files := map[string]interface {
		field(record, field string) (float64, error)
	}{}
	for _, row := range readmeBenchRows(t) {
		src, ok := files[row.file]
		if !ok {
			switch row.file {
			case "BENCH_e2e.json":
				var rep e2eReport
				readJSON(t, row.file, &rep)
				checkE2E(t, rep)
				src = rep
			case "BENCH_reach.json", "BENCH_sim.json":
				var rep engineReport
				readJSON(t, row.file, &rep)
				if rep.Quick || rep.NumCPU < 1 {
					t.Errorf("%s: quick %v, num_cpu %d; README quotes full runs only", row.file, rep.Quick, rep.NumCPU)
				}
				src = rep
			default:
				t.Fatalf("row quotes unknown file %q", row.file)
			}
			files[row.file] = src
		}
		num, unit, _ := strings.Cut(row.value, " ")
		if unit == "" { // a suffix unit: "0.96×", "3.1%"
			i := strings.LastIndexAny(num, "0123456789") + 1
			num, unit = num[:i], num[i:]
		}
		factor, ok := readmeUnits[unit]
		if !ok {
			t.Errorf("%s %s: unit %q of %q is not in readmeUnits", row.file, row.record, unit, row.value)
			continue
		}
		num = strings.ReplaceAll(num, ",", "")
		if _, err := strconv.ParseFloat(num, 64); err != nil {
			t.Errorf("%s %s: value %q is not a number", row.file, row.record, row.value)
			continue
		}
		decimals := 0
		if _, frac, ok := strings.Cut(num, "."); ok {
			decimals = len(frac)
		}
		v, err := src.field(row.record, row.field)
		if err != nil {
			t.Errorf("%s: %v", row.file, err)
			continue
		}
		if want := strconv.FormatFloat(v*factor, 'f', decimals, 64); want != num {
			t.Errorf("%s %s %s: README says %s, the JSON gives %s %s", row.file, row.record, row.field, row.value, want, unit)
		}
	}
}
