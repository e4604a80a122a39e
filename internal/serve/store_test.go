package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"awam"
	"awam/api"
	"awam/internal/cache"
)

func postStore(t *testing.T, ts *httptest.Server, path string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestStoreRoundTrip: put, has and get through the real routes behave
// like the protocol promises — positional has, absent records simply
// missing from get, malformed fingerprints skipped on put.
func TestStoreRoundTrip(t *testing.T) {
	ts := newTestServer(t, Config{})

	putReq := api.StorePutRequest{Records: []api.StoreRecord{
		{Fingerprint: "aa11", Data: []byte("alpha")},
		{Fingerprint: "bb22", Data: []byte("beta")},
		{Fingerprint: "../escape", Data: []byte("evil")},
		{Fingerprint: "", Data: []byte("anon")},
	}}
	resp, data := postStore(t, ts, "/v1/store/put", putReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put status %d: %s", resp.StatusCode, data)
	}
	var putResp api.StorePutResponse
	if err := json.Unmarshal(data, &putResp); err != nil {
		t.Fatal(err)
	}
	if putResp.Stored != 2 {
		t.Fatalf("put stored %d, want 2 (malformed fingerprints skipped)", putResp.Stored)
	}

	resp, data = postStore(t, ts, "/v1/store/has",
		api.StoreHasRequest{Fingerprints: []string{"aa11", "cc33", "bb22"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("has status %d: %s", resp.StatusCode, data)
	}
	var hasResp api.StoreHasResponse
	if err := json.Unmarshal(data, &hasResp); err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, false, true}; !reflect.DeepEqual(hasResp.Present, want) {
		t.Fatalf("has = %v, want %v", hasResp.Present, want)
	}

	resp, data = postStore(t, ts, "/v1/store/get",
		api.StoreGetRequest{Fingerprints: []string{"aa11", "cc33", "bb22"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get status %d: %s", resp.StatusCode, data)
	}
	var getResp api.StoreGetResponse
	if err := json.Unmarshal(data, &getResp); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, rec := range getResp.Records {
		got[rec.Fingerprint] = string(rec.Data)
	}
	if want := map[string]string{"aa11": "alpha", "bb22": "beta"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("get = %v, want %v", got, want)
	}
}

// TestStoreErrors: the typed error paths — batch cap, body cap,
// malformed JSON, method routing.
func TestStoreErrors(t *testing.T) {
	ts := newTestServer(t, Config{MaxStoreBodyBytes: 4 << 10, MaxRecordBytes: 64})

	big := make([]string, api.MaxStoreBatch+1)
	for i := range big {
		big[i] = fmt.Sprintf("%04x", i)
	}
	resp, data := postStore(t, ts, "/v1/store/has", api.StoreHasRequest{Fingerprints: big})
	if resp.StatusCode != http.StatusBadRequest || errCode(t, data) != "batch_too_large" {
		t.Fatalf("oversized batch: status %d code %q", resp.StatusCode, errCode(t, data))
	}

	// An oversized record is skipped on put, not failed.
	resp, data = postStore(t, ts, "/v1/store/put", api.StorePutRequest{Records: []api.StoreRecord{
		{Fingerprint: "aa11", Data: bytes.Repeat([]byte("x"), 65)},
		{Fingerprint: "bb22", Data: []byte("ok")},
	}})
	var putResp api.StorePutResponse
	if err := json.Unmarshal(data, &putResp); err != nil {
		t.Fatalf("put status %d: %s", resp.StatusCode, data)
	}
	if putResp.Stored != 1 {
		t.Fatalf("oversized record: stored %d, want 1", putResp.Stored)
	}

	// A body over the store body cap is a typed 413.
	huge := api.StorePutRequest{Records: []api.StoreRecord{
		{Fingerprint: "cc33", Data: bytes.Repeat([]byte("y"), 8<<10)},
	}}
	resp, data = postStore(t, ts, "/v1/store/put", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || errCode(t, data) != "body_too_large" {
		t.Fatalf("oversized body: status %d code %q", resp.StatusCode, errCode(t, data))
	}

	hresp, err := http.Post(ts.URL+"/v1/store/get", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusBadRequest || errCode(t, buf.Bytes()) != "bad_request" {
		t.Fatalf("malformed JSON: status %d code %q", hresp.StatusCode, errCode(t, buf.Bytes()))
	}

	hresp, err = http.Get(ts.URL + "/v1/store/has")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on store route: status %d, want 405", hresp.StatusCode)
	}
}

// TestStoreWireParity: internal/cache cannot import awam/api (the api
// package imports the facade, which wraps internal/cache), so the
// client-side wire types are declared twice. This test pins the two
// declarations to one JSON wire format.
func TestStoreWireParity(t *testing.T) {
	pairs := []struct {
		name           string
		client, server any
	}{
		{"has_request",
			cache.HasRequest{Fingerprints: []string{"aa", "bb"}},
			api.StoreHasRequest{Fingerprints: []string{"aa", "bb"}}},
		{"has_response",
			cache.HasResponse{Present: []bool{true, false}},
			api.StoreHasResponse{Present: []bool{true, false}}},
		{"get_request",
			cache.GetRequest{Fingerprints: []string{"aa"}},
			api.StoreGetRequest{Fingerprints: []string{"aa"}}},
		{"get_response",
			cache.GetResponse{Records: []cache.WireRecord{{Fingerprint: "aa", Data: []byte{1, 2}}}},
			api.StoreGetResponse{Records: []api.StoreRecord{{Fingerprint: "aa", Data: []byte{1, 2}}}}},
		{"put_request",
			cache.PutRequest{Records: []cache.WireRecord{{Fingerprint: "aa", Data: []byte{3}}}},
			api.StorePutRequest{Records: []api.StoreRecord{{Fingerprint: "aa", Data: []byte{3}}}}},
		{"put_response",
			cache.PutResponse{Stored: 7},
			api.StorePutResponse{Stored: 7}},
	}
	for _, p := range pairs {
		cj, err := json.Marshal(p.client)
		if err != nil {
			t.Fatal(err)
		}
		sj, err := json.Marshal(p.server)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cj, sj) {
			t.Errorf("%s: client and server wire types diverge:\n  cache: %s\n  api:   %s", p.name, cj, sj)
		}
	}
	if cache.DefaultMaxBatch != api.MaxStoreBatch {
		t.Errorf("batch caps diverge: cache.DefaultMaxBatch=%d api.MaxStoreBatch=%d",
			cache.DefaultMaxBatch, api.MaxStoreBatch)
	}
}

// TestStoreFabricChain: records flow both ways through the real
// handlers. A downstream analysis flushes its records into an empty
// upstream daemon; a second cold downstream store then warm-starts
// entirely over the fabric, byte-identical to scratch.
func TestStoreFabricChain(t *testing.T) {
	upstreamStore, err := awam.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Cache: upstreamStore})

	ref, err := mustLoad(t).Analyze(awam.WithStrategy(awam.Worklist))
	if err != nil {
		t.Fatal(err)
	}

	// Daemon B: cold everywhere, upstream empty — a plain cold run that
	// publishes its records to A on flush.
	b, err := awam.NewStore(awam.WithRemote(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	resB, err := mustLoad(t).Analyze(awam.WithSummaryCache(b))
	if err != nil {
		t.Fatal(err)
	}
	if resB.Marshal() != ref.Marshal() {
		t.Fatal("fabric-attached cold analysis differs from scratch")
	}
	stB := b.Stats()
	if stB.RemotePuts == 0 {
		t.Fatalf("cold run flushed nothing upstream: %+v", stB)
	}
	if up := upstreamStore.Stats(); up.Entries == 0 {
		t.Fatalf("upstream store still empty after downstream flush: %+v", up)
	}

	// Daemon C: cold memory and disk, warm only via A — every component
	// must load over the fabric and the result must not change.
	c, err := awam.NewStore(awam.WithRemote(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	resC, err := mustLoad(t).Analyze(awam.WithSummaryCache(c))
	if err != nil {
		t.Fatal(err)
	}
	if resC.Marshal() != ref.Marshal() {
		t.Fatal("fabric warm analysis differs from scratch")
	}
	inc, ok := resC.Incremental()
	if !ok || inc.SCCs == 0 || inc.WarmSCCs != inc.SCCs {
		t.Fatalf("fabric warm start served %d/%d components", inc.WarmSCCs, inc.SCCs)
	}
	stC := c.Stats()
	if stC.RemoteLoads == 0 || stC.RemoteRoundTrips == 0 {
		t.Fatalf("warm start recorded no remote traffic: %+v", stC)
	}
	if stC.RemoteErrors != 0 || stC.Degraded {
		t.Fatalf("fabric warm start surfaced errors: %+v", stC)
	}

	// The analyze response of the upstream daemon reports its store
	// traffic under cache.*; the store routes show up in /metrics.
	resp, data := postAnalyze(t, ts, reqBody(t, testProg))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upstream analyze: status %d: %s", resp.StatusCode, data)
	}
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`awamd_store_requests_total{op="put"}`,
		`awamd_store_requests_total{op="get"}`,
		"awamd_store_records_stored_total",
		"awamd_store_records_served_total",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/v1/metrics missing %s", want)
		}
	}
}

func mustLoad(t *testing.T) *awam.System {
	t.Helper()
	sys, err := awam.Load(testProg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}
