package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// reference.json pins, per workload, the simulated outputs of the default
// seed: the sim-paper Results, the first cold EvalResults of each
// serve-mix client and the search-aspl walk. A change that claims only
// speed must leave them bit-identical. Rewrite it with
//
//	perfbench reference -out perfbench/reference.json REPORT.json...
//
// from reports of default-seed runs, and only for a change that means to
// alter simulated results.
//
//go:embed reference.json
var referenceJSON []byte

// checkReference compares every output the run pinned with the recorded
// reference, entry by entry.
func checkReference(r *run) {
	var ref map[string]map[string]json.RawMessage
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		r.fail("reference.json: %v", err)
		return
	}
	want := ref[r.workload]
	if len(want) == 0 {
		r.fail("reference.json has no outputs for %s", r.workload)
		return
	}
	r.attempt()
	for _, k := range sortedKeys(r.outputs) {
		w, ok := want[k]
		if !ok {
			r.fail("output %s has no recorded reference", k)
			continue
		}
		got, err := canonicalJSON(r.outputs[k])
		if err == nil {
			w, err = canonicalJSON(w)
		}
		if err != nil {
			r.fail("output %s: %v", k, err)
		} else if !bytes.Equal(got, w) {
			r.fail("output %s differs from the default-seed reference:\n  got  %s\n  want %s", k, got, w)
		}
	}
}

// canonicalJSON encodes v with object keys sorted and numbers kept as
// their shortest round-trip text, so equal values give equal bytes.
func canonicalJSON(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var x any
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	if err := dec.Decode(&x); err != nil {
		return nil, err
	}
	return json.Marshal(x)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// referenceMain writes reference.json from default-seed run reports.
func referenceMain(args []string) error {
	if len(args) < 3 || args[0] != "-out" {
		return fmt.Errorf("usage: perfbench reference -out FILE REPORT.json...")
	}
	ref := map[string]map[string]any{}
	for _, path := range args[2:] {
		rep, err := readReport(path)
		if err != nil {
			return err
		}
		if rep.Seed != defaultSeed {
			return fmt.Errorf("%s: seed %d, want the default seed %d", path, rep.Seed, defaultSeed)
		}
		if ref[rep.Workload] == nil {
			ref[rep.Workload] = map[string]any{}
		}
		for k, v := range rep.Outputs {
			ref[rep.Workload][k] = v
		}
	}
	return writeJSONFile(args[1], ref)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if rep.Workload == "" || !strings.HasPrefix(rep.Env.GoVersion, "go") {
		return nil, fmt.Errorf("%s: not a perfbench report", path)
	}
	return &rep, nil
}
