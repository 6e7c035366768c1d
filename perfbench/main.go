// Command perfbench is the repository benchmark: one workload per
// process, end-to-end metrics from an untraced run, per-layer metrics
// from a separate traced run. It is normally started through run.sh,
// which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload front-mix --seed 7 --seconds 25 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is
// the host stamp. NOTES.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	workloadName := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 25, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant, 0 the untraced end-to-end one")
	out := flag.String("out", "", "directory for the per-layer ledger (traced runs); empty skips writing it")
	writeRefs := flag.String("write-refs", "", "compute the default-seed references of every workload into this file and exit")
	flag.Parse()

	if *writeRefs != "" {
		if err := writeReferences(*writeRefs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloadByName(*workloadName)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(w, config{seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: *out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"stamp": res.Stamp}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res.Line); err != nil {
		os.Exit(1)
	}
}
