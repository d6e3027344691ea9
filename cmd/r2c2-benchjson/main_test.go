package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: r2c2
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimulatorEventThroughput 	      30	  38674206 ns/op	     74008 events/run	     61250 hops/run	       631.4 ns/hop	 3076612 B/op	   54502 allocs/op
BenchmarkIncrementalChurn/incremental-8 	  120000	      9000 ns/op	     120 B/op	       3 allocs/op
BenchmarkEmuDataPath-8 	      50	  21000000 ns/op	  49.92 MB/s	  2048 B/op	      12 allocs/op
PASS
ok  	r2c2	12.3s
`

func TestRunParsesBenchOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(sampleOutput), &out, ""); err != nil {
		t.Fatal(err)
	}
	var got map[string]map[string]float64
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	ev := got["BenchmarkSimulatorEventThroughput"]
	if ev == nil {
		t.Fatalf("missing event-throughput entry: %v", got)
	}
	if ev["ns/op"] != 38674206 || ev["allocs/op"] != 54502 || ev["events/run"] != 74008 ||
		ev["hops/run"] != 61250 || ev["ns/hop"] != 631.4 {
		t.Fatalf("wrong metrics: %v", ev)
	}
	// The -GOMAXPROCS suffix is stripped, sub-benchmark names kept.
	if got["BenchmarkIncrementalChurn/incremental"]["allocs/op"] != 3 {
		t.Fatalf("suffix not stripped or sub-benchmark lost: %v", got)
	}
	if got["BenchmarkEmuDataPath"]["MB/s"] != 49.92 {
		t.Fatalf("custom unit lost: %v", got)
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader("PASS\nok r2c2 1s\n"), &out, ""); err == nil {
		t.Fatal("no benchmark lines should be an error")
	}
}

// TestRunSplitsEmuBenchmarks checks -emu routing: emulator benchmarks land
// in the side file and nowhere else; everything else stays on stdout.
func TestRunSplitsEmuBenchmarks(t *testing.T) {
	emuPath := t.TempDir() + "/BENCH_emu.json"
	var out bytes.Buffer
	if err := run(strings.NewReader(sampleOutput), &out, emuPath); err != nil {
		t.Fatal(err)
	}
	var sim map[string]map[string]float64
	if err := json.Unmarshal(out.Bytes(), &sim); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, out.String())
	}
	if _, ok := sim["BenchmarkEmuDataPath"]; ok {
		t.Fatalf("emu benchmark leaked into the sim report: %v", sim)
	}
	if _, ok := sim["BenchmarkSimulatorEventThroughput"]; !ok {
		t.Fatalf("sim benchmark missing from stdout: %v", sim)
	}
	data, err := os.ReadFile(emuPath)
	if err != nil {
		t.Fatal(err)
	}
	var emu map[string]map[string]float64
	if err := json.Unmarshal(data, &emu); err != nil {
		t.Fatalf("emu file is not JSON: %v\n%s", err, data)
	}
	if emu["BenchmarkEmuDataPath"]["MB/s"] != 49.92 {
		t.Fatalf("emu metrics wrong or missing: %v", emu)
	}
	if len(emu) != 1 {
		t.Fatalf("emu file should hold only emulator benchmarks: %v", emu)
	}
}

// TestRunEmuFlagRequiresEmuLines guards against the split silently
// producing an empty artifact when the benchmark filter drops the emulator.
func TestRunEmuFlagRequiresEmuLines(t *testing.T) {
	simOnly := "BenchmarkSimulatorEventThroughput 	 30	 38674206 ns/op\n"
	var out bytes.Buffer
	if err := run(strings.NewReader(simOnly), &out, t.TempDir()+"/e.json"); err == nil {
		t.Fatal("missing emulator lines with -emu set should be an error")
	}
}
