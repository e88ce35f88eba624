package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"crfs/internal/codec"
	"crfs/internal/core"
	"crfs/internal/osfs"
	"crfs/internal/vfs"
)

// checkpointTo writes im through a mount over back and unmounts.
func checkpointTo(t *testing.T, back vfs.FS, opts core.Options, im *image) {
	t.Helper()
	fs, err := core.Mount(back, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open(im.name, vfs.WriteOnly|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeStream(f, im); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
}

// readBack reads name from dir through a fresh mount over bare osfs.
func readBack(t *testing.T, dir, name string) []byte {
	t.Helper()
	root, err := osfs.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mount(root, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	got, err := vfs.ReadFile(fs, name)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// The wrappers must not change what reaches the backend: a mount over the
// wrapped osfs writes the same files as one over bare osfs, and containers
// written through the timed codec decode through the registered one.
func TestWrappersArePassThrough(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec codec.Codec
	}{{"raw", nil}, {"deflate", codec.Deflate()}} {
		t.Run(tc.name, func(t *testing.T) {
			p := newProbe()
			p.tracer.SetEnabled(true) // the timed paths must pass through too
			im := makeImage(7, 0, 3<<20, tc.codec != nil)
			bareDir, wrappedDir := t.TempDir(), t.TempDir()
			bare, err := osfs.New(bareDir)
			if err != nil {
				t.Fatal(err)
			}
			wrapped, err := osfs.New(wrappedDir)
			if err != nil {
				t.Fatal(err)
			}
			// One IO thread appends frames in a fixed order, so even
			// containers are byte-comparable.
			bareOpts := core.Options{IOThreads: 1, Codec: tc.codec}
			wrappedOpts := bareOpts
			if tc.codec != nil {
				wrappedOpts.Codec = timedCodec{Codec: tc.codec, p: p}
			}
			checkpointTo(t, bare, bareOpts, &im)
			checkpointTo(t, &backend{FS: wrapped, p: p}, wrappedOpts, &im)

			want, err := os.ReadFile(filepath.Join(bareDir, im.name))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(wrappedDir, im.name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("backend file through the wrappers differs: %d vs %d bytes", len(got), len(want))
			}
			if tc.codec == nil && !bytes.Equal(got, im.data) {
				t.Errorf("raw backend file is not the image")
			}
			if !bytes.Equal(readBack(t, wrappedDir, im.name), im.data) {
				t.Errorf("file written through the wrappers does not read back as the image")
			}
			if p.osfsWriteCalls.Load() == 0 || p.osfsWriteNs.Load() == 0 {
				t.Errorf("backend writes were not counted and timed")
			}
			if tc.codec != nil && (p.encodeCalls.Load() == 0 || p.encodeNs.Load() == 0) {
				t.Errorf("encodes were not counted and timed")
			}
		})
	}
}

// A page the checkpoint failed to rewrite must fail verification, even
// though the previous round left a copy of the same image there.
func TestNextRoundExposesStalePages(t *testing.T) {
	im := makeImage(3, 1, 1<<20, false)
	im.next(1)
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, im.data, 0o644); err != nil {
		t.Fatal(err)
	}
	if same, err := sameFile(path, im.data); err != nil || !same {
		t.Fatalf("sameFile on an identical file = %v, %v", same, err)
	}
	im.next(2)
	if same, err := sameFile(path, im.data); err != nil || same {
		t.Fatalf("sameFile on last round's file = %v, %v; want a mismatch", same, err)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile is the part of BENCHMARK.json the metric tables mirror.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what   string
		table  []spec
		listed []struct{ Name, Unit, Better string }
	}{{"end_to_end", endToEnd, bf.EndToEnd}, {"per_layer", perLayer, bf.PerLayer}} {
		if len(c.table) != len(c.listed) {
			t.Errorf("%s: benchmark has %d metrics, BENCHMARK.json %d", c.what, len(c.table), len(c.listed))
			continue
		}
		for i, m := range c.table {
			l := c.listed[i]
			if m.name != l.Name || m.unit != l.Unit || m.better != l.Better {
				t.Errorf("%s[%d]: benchmark %v, BENCHMARK.json %v", c.what, i, m, l)
			}
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the benchmark", w.Name)
		}
	}
}

// Every workload, run briefly on small images, verifies clean and emits
// exactly its table's metrics under well-formed names, all finite.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]spec(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric name %q is malformed or repeated", m.name)
		}
		seen[m.name] = true
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 5, trace: trace, out: t.TempDir(), setups: 1, shift: 4}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			table := endToEnd
			if trace {
				table = perLayer
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(table))
			}
			for _, m := range table {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v", name, trace, m.name, v)
				}
			}
		}
	}
}
