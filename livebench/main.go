// Command livebench is the repository's end-to-end benchmark. It runs an
// n-replica Leopard cluster inside one process — every replica a
// leopard.Node on its own tcp.Runtime over loopback, wired as
// cmd/leopard-node wires a replica (Ed25519 suite, client.Keychain
// verifier, leopard.WireCodec, default timers, datablockSize 500,
// bftBlockSize 10) — and drives it with an open-loop generator of
// pre-signed 128-byte requests from 1024 clients. Latency runs from each
// request's due time to the f+1 matching reply certificate.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash livebench/run.sh --workload n4-light --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set; with --trace 1 they are the per-layer set, timed by
// wrapping the interfaces each replica accepts through its config, plus
// the traced run's own end-to-end figures under "traced.". Detail goes to
// standard error. README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// runLimit bounds a whole run: the process exits with an error rather
// than print late numbers.
const runLimit = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload name (n4-light, n4-peak, n16-light, n4-durable, n4-failover)")
		seed    = flag.Uint64("seed", 1, "workload seed: keys, payloads and request order derive from it")
		seconds = flag.Int("seconds", 12, "length of the measured window, in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		dir     = flag.String("dir", ".bench_build", "scratch directory for WAL directories")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "livebench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "livebench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	res, err := bench(w, *seed, *seconds, *trace == 1, *dir, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "livebench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "livebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
