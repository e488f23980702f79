package dist

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"crncompose/internal/reach"
)

var update = flag.Bool("update", false, "rewrite the protocol golden files")

// goldenJobSpec is a fixed wire message; changing its encoding is a protocol
// break and must bump ProtocolVersion.
func goldenJobSpec() JobSpec {
	return JobSpec{
		Version:    ProtocolVersion,
		CRN:        minCRN().String(),
		Func:       "min",
		Lo:         []int64{0, 0},
		Hi:         []int64{3, 3},
		MaxConfigs: 1 << 20,
		MaxCount:   1 << 40,
		Rects:      4,
	}
}

func goldenLease() LeaseResponse {
	return LeaseResponse{
		Rect:      &Rect{ID: 2, Lo: []int64{2, 0}, Hi: []int64{2, 3}},
		TTLMillis: 30000,
	}
}

// goldenResult carries a real refuted GridResult (sum CRN checked against
// min), witness schedule included — the hardest message to keep stable.
func goldenResult(t *testing.T) ResultRequest {
	t.Helper()
	res, err := reach.CheckGrid(sumCRN(), minFunc, []int64{0, 0}, []int64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("sum CRN verified as min")
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return ResultRequest{Worker: "w1", Job: jobSum(goldenJobSpec()), RectID: 2, Result: raw}
}

func checkGolden(t *testing.T, name string, v any) []byte {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file (protocol break? bump ProtocolVersion and regenerate with -update):\ngot:\n%s\nwant:\n%s", name, got, want)
	}
	return want
}

func TestProtocolGoldenFiles(t *testing.T) {
	// Marshal → golden bytes, and golden bytes → the original message.
	job := goldenJobSpec()
	b := checkGolden(t, "jobspec.golden.json", job)
	var job2 JobSpec
	if err := json.Unmarshal(b, &job2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(job, job2) {
		t.Fatalf("JobSpec round trip: %+v vs %+v", job2, job)
	}

	lease := goldenLease()
	b = checkGolden(t, "lease.golden.json", lease)
	var lease2 LeaseResponse
	if err := json.Unmarshal(b, &lease2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lease, lease2) {
		t.Fatalf("LeaseResponse round trip: %+v vs %+v", lease2, lease)
	}

	res := goldenResult(t)
	b = checkGolden(t, "result.golden.json", res)
	var res2 ResultRequest
	if err := json.Unmarshal(b, &res2); err != nil {
		t.Fatal(err)
	}
	if res2.Worker != res.Worker || res2.Job != res.Job || res2.RectID != res.RectID {
		t.Fatalf("ResultRequest round trip: %+v vs %+v", res2, res)
	}
	// The embedded GridResult must decode and re-encode to identical bytes.
	dec, err := reach.UnmarshalGridResult(res2.Result, sumCRN())
	if err != nil {
		t.Fatal(err)
	}
	re, err := json.Marshal(dec)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, res.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, want.Bytes()) {
		t.Fatalf("GridResult payload round trip:\n%s\n%s", re, want.Bytes())
	}
}
