package awam_test

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"awam"
	"awam/internal/serve"
)

// These tests exercise the summary fabric end to end at the facade
// level: one daemon's HTTP store routes serve another process's remote
// tier. They live in package awam_test so the facade is used exactly
// as an importing client would, while still being able to stand up a
// real daemon handler from internal/serve.

const fabricProg = `
main :- rev([1,2,3], R), len(R, N), use(N).
rev([], []).
rev([X|Xs], R) :- rev(Xs, T), app(T, [X], R).
app([], Ys, Ys).
app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
len([], 0).
len([_|T], N) :- len(T, M), N is M + 1.
use(_).
`

// startDaemon stands up a daemon over the given store and returns its
// base URL.
func startDaemon(t *testing.T, store awam.Store) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(daemonHandler(t, store))
	t.Cleanup(ts.Close)
	return ts
}

// daemonHandler returns a daemon's handler over the given store.
func daemonHandler(t *testing.T, store awam.Store) http.Handler {
	t.Helper()
	s, err := serve.New(serve.Config{Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	return s.Handler()
}

func analyze(t *testing.T, src string, opts ...awam.AnalyzeOption) *awam.Analysis {
	t.Helper()
	sys, err := awam.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Analyze(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFabricWarmStart: daemon A computes; daemon B, cold in memory and
// disk, warm-starts entirely over A's store routes — byte-identical to
// a from-scratch analysis.
func TestFabricWarmStart(t *testing.T) {
	storeA, err := awam.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	tsA := startDaemon(t, storeA)

	ref := analyze(t, fabricProg, awam.WithStrategy(awam.Worklist))

	// Prime A through its own engine (as a request to daemon A would).
	if res := analyze(t, fabricProg, awam.WithSummaryCache(storeA)); res.Marshal() != ref.Marshal() {
		t.Fatal("daemon A's analysis differs from scratch")
	}

	storeB, err := awam.NewStore(awam.WithRemote(tsA.URL))
	if err != nil {
		t.Fatal(err)
	}
	res := analyze(t, fabricProg, awam.WithSummaryCache(storeB))
	if res.Marshal() != ref.Marshal() {
		t.Fatal("fabric-served analysis differs from scratch")
	}
	inc, ok := res.Incremental()
	if !ok || inc.SCCs == 0 || inc.WarmSCCs != inc.SCCs {
		t.Fatalf("daemon B warm-started %d/%d components over the fabric", inc.WarmSCCs, inc.SCCs)
	}
	st := storeB.Stats()
	if st.RemoteLoads == 0 {
		t.Fatalf("no records faulted over the fabric: %+v", st)
	}
	if st.RemoteErrors != 0 || st.Degraded {
		t.Fatalf("healthy fabric surfaced errors: %+v", st)
	}
	// Far fewer round trips than components: the engine prefetches.
	if st.RemoteRoundTrips > int64(inc.SCCs) {
		t.Fatalf("%d round trips for %d components — prefetch not batching", st.RemoteRoundTrips, inc.SCCs)
	}
}

// TestFabricEditReuse: after an edit, daemon B reuses the clean cone
// from the fabric and recomputes only the dirty components, still
// byte-identical to scratch.
func TestFabricEditReuse(t *testing.T) {
	storeA, err := awam.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	tsA := startDaemon(t, storeA)
	analyze(t, fabricProg, awam.WithSummaryCache(storeA))

	edited := fabricProg + "\nuse(extra_clause).\n"
	ref := analyze(t, edited, awam.WithStrategy(awam.Worklist))

	storeB, err := awam.NewStore(awam.WithRemote(tsA.URL))
	if err != nil {
		t.Fatal(err)
	}
	res := analyze(t, edited, awam.WithSummaryCache(storeB))
	if res.Marshal() != ref.Marshal() {
		t.Fatal("fabric-assisted edit analysis differs from scratch")
	}
	inc, ok := res.Incremental()
	if !ok || inc.WarmSCCs == 0 || inc.WarmSCCs >= inc.SCCs {
		t.Fatalf("edit should be part warm (fabric), part dirty: %+v", inc)
	}
	// The dirty cone's records were flushed back to A: a third cold
	// store now warm-starts the edited program fully from the fabric.
	storeC, err := awam.NewStore(awam.WithRemote(tsA.URL))
	if err != nil {
		t.Fatal(err)
	}
	resC := analyze(t, edited, awam.WithSummaryCache(storeC))
	if resC.Marshal() != ref.Marshal() {
		t.Fatal("round-tripped edit analysis differs from scratch")
	}
	if incC, ok := resC.Incremental(); !ok || incC.WarmSCCs != incC.SCCs {
		t.Fatalf("B's flush did not propagate the dirty cone to A: %+v", incC)
	}
}

// TestFabricOutageMidRun: the peer dies between daemon B's first and
// second analysis. Every analysis still succeeds with byte-identical
// output and no surfaced error; the store reports the degradation in
// its stats instead.
func TestFabricOutageMidRun(t *testing.T) {
	storeA, err := awam.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	tsA := startDaemon(t, storeA)
	analyze(t, fabricProg, awam.WithSummaryCache(storeA))

	// A flaky front door for daemon A: once `down` flips, every request
	// is a 503 — the shape of a crashed pod behind a load balancer.
	var down atomic.Bool
	target, err := url.Parse(tsA.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "upstream gone", http.StatusServiceUnavailable)
			return
		}
		r2 := r.Clone(r.Context())
		r2.URL.Scheme = target.Scheme
		r2.URL.Host = target.Host
		r2.RequestURI = ""
		resp, err := http.DefaultTransport.RoundTrip(r2)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 32<<10)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
			}
			if err != nil {
				break
			}
		}
	}))
	defer proxy.Close()

	ref := analyze(t, fabricProg, awam.WithStrategy(awam.Worklist))
	storeB, err := awam.NewStore(awam.WithRemote(proxy.URL,
		awam.WithRemoteRetries(1),
		awam.WithRemoteTimeout(time.Second),
		awam.WithRemoteBreaker(2, 50*time.Millisecond),
	))
	if err != nil {
		t.Fatal(err)
	}

	// Healthy: warm over the fabric.
	res1 := analyze(t, fabricProg, awam.WithSummaryCache(storeB))
	if res1.Marshal() != ref.Marshal() {
		t.Fatal("pre-outage analysis differs from scratch")
	}

	// Outage. A fresh store (cold local tiers, dead peer) must still
	// produce the identical result with no error — just slower.
	down.Store(true)
	storeB2, err := awam.NewStore(awam.WithRemote(proxy.URL,
		awam.WithRemoteRetries(0),
		awam.WithRemoteTimeout(time.Second),
		awam.WithRemoteBreaker(1, time.Minute),
	))
	if err != nil {
		t.Fatal(err)
	}
	res2 := analyze(t, fabricProg, awam.WithSummaryCache(storeB2))
	if res2.Marshal() != ref.Marshal() {
		t.Fatal("mid-outage analysis differs from scratch")
	}
	st := storeB2.Stats()
	if st.RemoteErrors == 0 || !st.Degraded {
		t.Fatalf("outage not visible in stats: %+v", st)
	}
	if inc, ok := res2.Incremental(); !ok || inc.WarmSCCs != 0 {
		t.Fatalf("dead peer somehow warmed components: %+v", inc)
	}

	// The primed store B still serves warm from its local tiers during
	// the outage — the fabric is an accelerator, not a dependency.
	res3 := analyze(t, fabricProg, awam.WithSummaryCache(storeB))
	if res3.Marshal() != ref.Marshal() {
		t.Fatal("post-outage local-tier analysis differs from scratch")
	}
	if inc, ok := res3.Incremental(); !ok || inc.WarmSCCs != inc.SCCs {
		t.Fatalf("local tiers lost their records during the outage: %+v", inc)
	}
}

// TestFabricOutageMidPrefetch: daemon A is primed over the wire by a
// cold fabric-attached store, whose flush must push records with no
// error. Then the peer dies partway through one analysis's prefetch: a
// proxy serves exactly one store round trip and answers 503 after it,
// and batches of two make the prefetch of an edit A has never seen take
// several round trips. The analysis must still return no error and a
// byte-identical result, and the store must count the failed trips.
func TestFabricOutageMidPrefetch(t *testing.T) {
	storeA, err := awam.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	tsA := startDaemon(t, storeA)

	primer, err := awam.NewStore(awam.WithRemote(tsA.URL))
	if err != nil {
		t.Fatal(err)
	}
	analyze(t, fabricProg, awam.WithSummaryCache(primer))
	if st := primer.Stats(); st.RemotePuts == 0 || st.RemoteErrors != 0 {
		t.Fatalf("priming flush pushed %d records with %d errors", st.RemotePuts, st.RemoteErrors)
	}

	handlerA := daemonHandler(t, storeA)
	var served atomic.Int64
	var mu sync.Mutex
	var refused []string
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 1 {
			mu.Lock()
			refused = append(refused, r.URL.Path)
			mu.Unlock()
			http.Error(w, "upstream gone", http.StatusServiceUnavailable)
			return
		}
		handlerA.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	edited := fabricProg + "\nuse(outage_edit).\n"
	ref := analyze(t, edited, awam.WithStrategy(awam.Worklist))
	storeB, err := awam.NewStore(awam.WithRemote(proxy.URL,
		awam.WithRemoteRetries(0),
		awam.WithRemoteMaxBatch(2),
		awam.WithRemoteBreaker(2, time.Minute),
	))
	if err != nil {
		t.Fatal(err)
	}
	res := analyze(t, edited, awam.WithSummaryCache(storeB))
	if res.Marshal() != ref.Marshal() {
		t.Fatal("analysis with a peer dying mid-prefetch differs from scratch")
	}
	if st := storeB.Stats(); st.RemoteErrors == 0 {
		t.Fatalf("outage did not reach the fabric path: %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(refused) == 0 || refused[0] != "/v1/store/get" {
		t.Fatalf("first refused round trip %v, want a prefetch get", refused)
	}
}
