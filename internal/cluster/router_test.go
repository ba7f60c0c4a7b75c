package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// testShard is one fake backend: it identifies itself in every
// response and answers /healthz, and its solve latency can be dialed
// up after the ring is known (to make a specific owner slow).
type testShard struct {
	ts      *httptest.Server
	addr    string
	idx     int
	delayMS atomic.Int64
	hits    atomic.Int64
}

func newTestShard(idx int) *testShard {
	sh := &testShard{idx: idx}
	sh.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"status":"ok"}`)) //nolint:errcheck — test server
			return
		}
		sh.hits.Add(1)
		if d := sh.delayMS.Load(); d > 0 {
			time.Sleep(time.Duration(d) * time.Millisecond)
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"shard":%d,"path":%q}`, sh.idx, r.URL.Path)
	}))
	sh.addr = strings.TrimPrefix(sh.ts.URL, "http://")
	return sh
}

// shardReply decodes a test shard's identifying response.
type shardReply struct {
	Shard int    `json:"shard"`
	Path  string `json:"path"`
}

func startTestCluster(t *testing.T, n int, mod func(*Config)) ([]*testShard, *Router, *httptest.Server) {
	t.Helper()
	shards := make([]*testShard, n)
	addrs := make([]string, n)
	for i := range shards {
		shards[i] = newTestShard(i)
		addrs[i] = shards[i].addr
	}
	cfg := Config{
		Shards:        addrs,
		ProbeInterval: time.Hour, // one startup probe, then quiet
		MaxRetries:    -1,        // no retries unless the test wants them
		RetryBase:     time.Millisecond,
		HedgeDelay:    time.Hour, // no hedging unless the test wants it
	}
	if mod != nil {
		mod(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	front := httptest.NewServer(rt)
	t.Cleanup(func() {
		front.Close()
		rt.Close()
		for _, sh := range shards {
			sh.ts.Close()
		}
	})
	return shards, rt, front
}

func postVia(t *testing.T, url, path, body string) (shardReply, int) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	var sr shardReply
	sr.Shard = -1
	_ = json.Unmarshal(data, &sr)
	return sr, resp.StatusCode
}

// bodyOwnerIdx predicts which shard index owns an unparseable body
// (router falls back to the body hash as routing key).
func bodyOwnerIdx(t *testing.T, shards []*testShard, body string) int {
	t.Helper()
	addrs := make([]string, len(shards))
	for i, sh := range shards {
		addrs[i] = sh.addr
	}
	sum := sha256.Sum256([]byte(body))
	owner := NewRing(addrs, 0).Owner(hex.EncodeToString(sum[:]))
	for i, sh := range shards {
		if sh.addr == owner {
			return i
		}
	}
	t.Fatalf("owner %q not among shards", owner)
	return -1
}

// TestRouterRoutesToOwner pins request routing: the same body lands on
// the same shard every time, and that shard is the ring owner of the
// routing key.
func TestRouterRoutesToOwner(t *testing.T) {
	shards, _, front := startTestCluster(t, 3, nil)
	body := `{"opaque":"not-smtlib"}`
	want := bodyOwnerIdx(t, shards, body)
	for i := 0; i < 3; i++ {
		sr, code := postVia(t, front.URL, "/solve", body)
		if code != http.StatusOK || sr.Shard != want {
			t.Fatalf("request %d answered by shard %d with code %d, want shard %d",
				i, sr.Shard, code, want)
		}
	}
}

// TestRouterFailsOverFromDeadOwner pins the failover half of the
// robustness ladder: with the owner's process gone, the request lands
// on a ring successor and still answers 200.
func TestRouterFailsOverFromDeadOwner(t *testing.T) {
	before := fault.Snapshot()
	shards, rt, front := startTestCluster(t, 3, nil)
	body := `{"opaque":"kill-my-owner"}`
	owner := bodyOwnerIdx(t, shards, body)
	shards[owner].ts.Close()

	sr, code := postVia(t, front.URL, "/solve", body)
	if code != http.StatusOK {
		t.Fatalf("failover answered %d, want 200", code)
	}
	if sr.Shard == owner || sr.Shard < 0 {
		t.Fatalf("request answered by shard %d; owner %d is dead", sr.Shard, owner)
	}
	st := rt.Snapshot(false)
	if st.Failovers < 1 {
		t.Fatalf("failovers = %d, want >= 1", st.Failovers)
	}
	front.Close()
	rt.Close()
	for _, sh := range shards {
		sh.ts.Close()
	}
	fault.CheckLeaks(t, before)
}

// TestRouterHedgesSlowOwner pins hedging: an interactive request stuck
// on a slow owner is duplicated to the successor after the hedge
// delay, and the first response wins.
func TestRouterHedgesSlowOwner(t *testing.T) {
	shards, rt, front := startTestCluster(t, 3, func(c *Config) {
		c.HedgeDelay = 10 * time.Millisecond
	})
	body := `{"opaque":"slow-owner"}`
	owner := bodyOwnerIdx(t, shards, body)
	shards[owner].delayMS.Store(1500)

	start := time.Now()
	sr, code := postVia(t, front.URL, "/solve", body)
	elapsed := time.Since(start)
	if code != http.StatusOK || sr.Shard == owner {
		t.Fatalf("hedged request: code %d shard %d (owner %d)", code, sr.Shard, owner)
	}
	if elapsed > time.Second {
		t.Fatalf("hedged request took %v; the hedge should have won long before the owner's 1.5s", elapsed)
	}
	st := rt.Snapshot(false)
	if st.Hedges.Launched < 1 || st.Hedges.Won < 1 {
		t.Fatalf("hedge counters launched=%d won=%d, want both >= 1", st.Hedges.Launched, st.Hedges.Won)
	}
}

// TestRouterDegradesToLocalSolve pins the bottom of the ladder: with
// every shard unreachable the request is served by the local handler,
// and once every breaker is open the local path engages without
// touching the network.
func TestRouterDegradesToLocalSolve(t *testing.T) {
	local := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"shard":-7}`)) //nolint:errcheck — test handler
	})
	// Dead ports: listeners that were never opened.
	rt, err := New(Config{
		Shards:           []string{"127.0.0.1:1", "127.0.0.2:1", "127.0.0.3:1"},
		Local:            local,
		ProbeInterval:    time.Hour,
		BreakerThreshold: 1,
		MaxRetries:       -1,
		RetryBase:        time.Millisecond,
		HedgeDelay:       time.Hour,
		HopTimeout:       200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()

	for i := 0; i < 2; i++ {
		sr, code := postVia(t, front.URL, "/solve", `{"n":1}`)
		if code != http.StatusOK || sr.Shard != -7 {
			t.Fatalf("request %d: code %d shard %d, want the local handler (-7)", i, code, sr.Shard)
		}
	}
	st := rt.Snapshot(false)
	if st.LocalSolves != 2 {
		t.Fatalf("local_solves = %d, want 2", st.LocalSolves)
	}
	// The second request found every breaker already open (threshold 1
	// opened each on the first pass), so it made no network attempts.
	open := 0
	for _, sh := range st.Shards {
		if sh.Breaker == "open" {
			open++
		}
	}
	if open != 3 {
		t.Fatalf("%d breakers open, want all 3", open)
	}
}

// TestRouterNoLocalFallbackIs503 pins degraded behavior without a
// Local handler: an unreachable cluster answers 503 with Retry-After,
// never hangs.
func TestRouterNoLocalFallbackIs503(t *testing.T) {
	rt, err := New(Config{
		Shards:        []string{"127.0.0.1:1"},
		ProbeInterval: time.Hour,
		MaxRetries:    -1,
		HopTimeout:    200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()
	resp, err := http.Post(front.URL+"/solve", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("code %d Retry-After %q, want 503 with a backoff hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestRouterJobIDRoundTrip pins the shard-prefixed job id scheme.
func TestRouterJobIDRoundTrip(t *testing.T) {
	id := routedJobID(2, "job-17")
	if id != "s2!job-17" {
		t.Fatalf("routedJobID = %q", id)
	}
	idx, rest, ok := splitJobID(id)
	if !ok || idx != 2 || rest != "job-17" {
		t.Fatalf("splitJobID(%q) = %d %q %v", id, idx, rest, ok)
	}
	for _, bad := range []string{"", "job-17", "s!job-1", "sx!job-1", "s-1!job-1", "s2job-1"} {
		if _, _, ok := splitJobID(bad); ok {
			t.Errorf("splitJobID(%q) accepted a malformed id", bad)
		}
	}
}

// TestRouterBatchAndJobRouting pins the async path through the
// router: the 202's job id gains the shard prefix, and polling it
// routes back to the owning shard with the original id.
func TestRouterBatchAndJobRouting(t *testing.T) {
	var batchShard atomic.Int64
	batchShard.Store(-1)
	shards := make([]*testShard, 3)
	addrs := make([]string, 3)
	for i := range shards {
		i := i
		sh := &testShard{idx: i}
		sh.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case r.URL.Path == "/healthz":
				w.Write([]byte(`{"status":"ok"}`)) //nolint:errcheck — test server
			case r.URL.Path == "/batch":
				batchShard.Store(int64(i))
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusAccepted)
				w.Write([]byte(`{"job_id":"job-9","tenant":"t","instances":2}`)) //nolint:errcheck — test server
			default:
				fmt.Fprintf(w, `{"shard":%d,"path":%q}`, i, r.URL.Path)
			}
		}))
		sh.addr = strings.TrimPrefix(sh.ts.URL, "http://")
		shards[i] = sh
		addrs[i] = sh.addr
	}
	rt, err := New(Config{
		Shards:        addrs,
		ProbeInterval: time.Hour,
		MaxRetries:    -1,
		HedgeDelay:    time.Hour,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	front := httptest.NewServer(rt)
	defer func() {
		front.Close()
		rt.Close()
		for _, sh := range shards {
			sh.ts.Close()
		}
	}()

	resp, err := http.Post(front.URL+"/batch", "application/json", strings.NewReader(`{"instances":[]}`))
	if err != nil {
		t.Fatalf("POST /batch: %v", err)
	}
	var acc struct {
		JobID string `json:"job_id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch 202 decode: code %d err %v", resp.StatusCode, err)
	}
	want := routedJobID(int(batchShard.Load()), "job-9")
	if acc.JobID != want {
		t.Fatalf("routed job id = %q, want %q", acc.JobID, want)
	}

	jr, code := func() (shardReply, int) {
		resp, err := http.Get(front.URL + "/jobs/" + acc.JobID)
		if err != nil {
			t.Fatalf("GET /jobs: %v", err)
		}
		defer resp.Body.Close()
		var sr shardReply
		sr.Shard = -1
		_ = json.NewDecoder(resp.Body).Decode(&sr)
		return sr, resp.StatusCode
	}()
	if code != http.StatusOK || jr.Shard != int(batchShard.Load()) || jr.Path != "/jobs/job-9" {
		t.Fatalf("job poll: code %d shard %d path %q, want shard %d path /jobs/job-9",
			code, jr.Shard, jr.Path, batchShard.Load())
	}

	if resp, err := http.Get(front.URL + "/jobs/job-9"); err != nil {
		t.Fatalf("GET unprefixed job: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unprefixed job id answered %d, want 404", resp.StatusCode)
		}
	}
}

// TestRouterDrainingRejects pins shutdown behavior: a closed router
// sheds new work with 503 + Retry-After and stops its probers.
func TestRouterDrainingRejects(t *testing.T) {
	before := fault.Snapshot()
	shards, rt, front := startTestCluster(t, 2, nil)
	rt.Close()
	resp, err := http.Post(front.URL+"/solve", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining router answered %d, want 503", resp.StatusCode)
	}
	front.Close()
	for _, sh := range shards {
		sh.ts.Close()
	}
	fault.CheckLeaks(t, before)
}

// TestRouterStatsAggregation pins the cluster-wide /stats: router
// counters plus one entry per shard with breaker state and the shard's
// own stats embedded when reachable.
func TestRouterStatsAggregation(t *testing.T) {
	shards, rt, front := startTestCluster(t, 3, nil)
	if _, code := postVia(t, front.URL, "/solve", `{"q":1}`); code != http.StatusOK {
		t.Fatalf("warmup solve answered %d", code)
	}
	// A shard's stats are fetched only once a probe has found it
	// healthy, and the startup probes run concurrently with the test.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		probed := 0
		for _, sh := range rt.Snapshot(false).Shards {
			if sh.ProbesOK > 0 {
				probed++
			}
		}
		if probed == len(shards) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d shards probed healthy after 10s", probed, len(shards))
		}
	}
	resp, err := http.Get(front.URL + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if st.Routed < 1 {
		t.Fatalf("routed = %d, want >= 1", st.Routed)
	}
	if len(st.Shards) != len(shards) {
		t.Fatalf("stats list %d shards, want %d", len(st.Shards), len(shards))
	}
	for _, sh := range st.Shards {
		if sh.Breaker != "closed" {
			t.Errorf("shard %s breaker %q, want closed", sh.Addr, sh.Breaker)
		}
		if len(sh.Stats) == 0 {
			t.Errorf("shard %s stats not embedded", sh.Addr)
		}
	}
}
