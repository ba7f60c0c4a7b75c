// Command trauserve runs the concurrent solving service: SMT-LIB
// problems in, JSON verdicts out, over HTTP (see internal/server and
// the "trauserve" section of the README).
//
// Usage:
//
//	trauserve [-addr 127.0.0.1:8080] [-workers N] [-queue N] [-cache N]
//	          [-timeout d] [-max-timeout d] [-drain d]
//	          [-membudget N] [-tenantbudget N [-tenantrefill N]]
//	          [-faultseed N] [-netfault k:op]
//	          [-portfolio [-backends refine,enum,...]]
//	          [-shards a,b,c [-self a]]
//	          [-router [-shards a,b,c] [-hedge d] [-probe d]]
//
// Standalone (the default) serves solves itself. With -shards and
// -self it runs as one shard of a cluster: it still solves, but on a
// verdict-cache miss it first asks the canonical hash's owner shard
// (peer cache-fill). With -router it serves no solves of its own
// (unless every shard is down, when it degrades to solving locally):
// it routes each request to its owner shard with health-checked
// failover, circuit breakers, bounded retries, and hedging — see the
// "cluster" section of the README.
//
// The process listens until SIGINT/SIGTERM, then drains: the listener
// stops accepting, in-flight solves finish (bounded by -drain), and the
// process exits 0 on a clean drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/server"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sigs))
}

// run is the testable body of the command: exit 0 on a clean serve and
// drain, 1 on runtime errors, 2 on usage errors. sigs triggers graceful
// shutdown; tests pass their own channel.
func run(args []string, stdout, stderr io.Writer, sigs <-chan os.Signal) int {
	fs := flag.NewFlagSet("trauserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	workers := fs.Int("workers", 4, "solver worker goroutines")
	queue := fs.Int("queue", 0, "admission queue depth (0 = 2*workers)")
	cache := fs.Int("cache", 1024, "verdict cache entries (negative disables)")
	timeout := fs.Duration("timeout", 5*time.Second, "default per-request solve budget")
	maxTimeout := fs.Duration("max-timeout", 30*time.Second, "largest per-request budget a client may ask for")
	maxBody := fs.Int64("max-body", 1<<20, "largest accepted request body in bytes")
	drain := fs.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight solves")
	memBudget := fs.Int64("membudget", 0, "resource-governor budget units per solve (0 = unlimited)")
	tenantBudget := fs.Int64("tenantbudget", 0, "shared budget-pool units per tenant (X-Tenant header; 0 = unlimited)")
	tenantRefill := fs.Int64("tenantrefill", 0, "token-bucket refill rate for tenant pools in units/sec (0 = prepaid)")
	faultSeed := fs.Int64("faultseed", 0, "deterministic fault-injection seed for chaos testing (0 = off)")
	netFault := fs.String("netfault", "", "injected network fault as k:op (op: connect-fail, stall, cut) at the k-th cluster hop")
	usePortfolio := fs.Bool("portfolio", false, "race scheduled backends from the registry per solve")
	backends := fs.String("backends", "", "comma-separated backend subset for -portfolio (default: the whole registry)")
	router := fs.Bool("router", false, "run as the cluster router instead of a solving shard")
	shards := fs.String("shards", "", "comma-separated shard addresses, identical order on every process")
	self := fs.String("self", "", "this shard's own address within -shards (enables peer cache-fill)")
	hedge := fs.Duration("hedge", 0, "router: hedge interactive requests after this delay (0 = adaptive p95)")
	probe := fs.Duration("probe", 0, "router: health-probe interval (0 = 250ms)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: trauserve [-addr host:port] [-workers n] [-queue n] [-cache n] [-timeout d] [-max-timeout d] [-drain d] [-membudget n] [-tenantbudget n [-tenantrefill n]] [-faultseed n] [-netfault k:op] [-portfolio [-backends a,b]] [-shards a,b [-self a]] [-router [-shards a,b] [-hedge d] [-probe d]]")
		return 2
	}
	if *backends != "" && !*usePortfolio {
		fmt.Fprintln(stderr, "trauserve: -backends requires -portfolio")
		return 2
	}
	shardList := splitShards(*shards)
	if *router && len(shardList) == 0 {
		fmt.Fprintln(stderr, "trauserve: -router requires -shards")
		return 2
	}
	if *self != "" && len(shardList) == 0 {
		fmt.Fprintln(stderr, "trauserve: -self requires -shards")
		return 2
	}
	if *self != "" && *router {
		fmt.Fprintln(stderr, "trauserve: -self and -router are mutually exclusive")
		return 2
	}
	sched, err := parseFaultFlags(*faultSeed, *netFault)
	if err != nil {
		fmt.Fprintln(stderr, "trauserve:", err)
		return 2
	}
	pool, err := backend.Select(*backends)
	if err != nil {
		fmt.Fprintln(stderr, "trauserve:", err)
		return 2
	}

	srv := server.New(server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheEntries:    *cache,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		MaxRequestBytes: *maxBody,
		Portfolio:       *usePortfolio,
		Backends:        pool,
		MemBudget:       *memBudget,
		TenantBudget:    *tenantBudget,
		TenantRefill:    *tenantRefill,
		Peers:           cluster.NewPeers(*self, shardList, sched),
		Fault:           sched,
	})
	if *faultSeed != 0 {
		fmt.Fprintf(stdout, "trauserve: fault injection armed (seed %d)\n", *faultSeed)
	}
	if *netFault != "" {
		fmt.Fprintf(stdout, "trauserve: network fault armed (%s)\n", *netFault)
	}

	// The router fronts the shard cluster; the local server is its
	// degraded-mode fallback, so an unreachable cluster still answers
	// (slowly, under this process's own governor) instead of erroring.
	var handler http.Handler = srv
	var rt *cluster.Router
	if *router {
		rt, err = cluster.New(cluster.Config{
			Shards:        shardList,
			Local:         srv,
			HedgeDelay:    *hedge,
			ProbeInterval: *probe,
			Fault:         sched,
		})
		if err != nil {
			fmt.Fprintln(stderr, "trauserve:", err)
			return 2
		}
		handler = rt
		fmt.Fprintf(stdout, "trauserve: routing across %d shards\n", len(shardList))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "trauserve:", err)
		return 1
	}
	httpSrv := newHTTPServer(handler, 10*time.Second, 30*time.Second)
	fmt.Fprintf(stdout, "trauserve: listening on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }() //lint:nocontain — net/http recovers handler panics; Serve runs no solver code

	select {
	case err := <-serveErr:
		// Serve never returns nil; anything before a shutdown request
		// is a real failure.
		fmt.Fprintln(stderr, "trauserve:", err)
		return 1
	case <-sigs:
	}

	fmt.Fprintln(stdout, "trauserve: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop the listener and wait for handlers first, so nothing is
	// still enqueueing when the worker pool drains.
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "trauserve: http shutdown:", err)
		return 1
	}
	if rt != nil {
		rt.Close()
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "trauserve:", err)
		return 1
	}
	<-serveErr // Serve has returned http.ErrServerClosed
	fmt.Fprintln(stdout, "trauserve: drained")
	return 0
}

// splitShards parses the -shards list, trimming whitespace and
// dropping empty entries.
func splitShards(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseFaultFlags combines -faultseed and -netfault into one schedule.
// -netfault is "k:op": inject op at the k-th network hop (k counts
// cluster-transport exchanges; 0 disarms).
func parseFaultFlags(seed int64, netFault string) (*fault.Schedule, error) {
	if netFault == "" {
		return fault.NewSchedule(seed), nil
	}
	k, opName, ok := strings.Cut(netFault, ":")
	if !ok {
		return nil, fmt.Errorf("-netfault wants k:op, got %q", netFault)
	}
	hop, err := strconv.ParseUint(k, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("-netfault hop %q: %v", k, err)
	}
	var op fault.NetOp
	switch opName {
	case "connect-fail":
		op = fault.NetConnectFail
	case "stall":
		op = fault.NetStall
	case "cut":
		op = fault.NetCut
	default:
		return nil, fmt.Errorf("-netfault op %q (want connect-fail, stall, or cut)", opName)
	}
	return fault.Combine(fault.NewSchedule(seed), fault.AtNet(hop, op)), nil
}

// newHTTPServer wraps the handler in an http.Server with connection-
// level read timeouts: they bound how long a stalled or malicious
// client can pin a connection goroutine — generous enough for any real
// request, small enough that slowloris-style trickles fail.
func newHTTPServer(h http.Handler, readHeader, read time.Duration) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeader,
		ReadTimeout:       read,
	}
}
