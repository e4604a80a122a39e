package serve

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"awam"
	"awam/api"
)

// FuzzStoreRoutes posts arbitrary bodies to the summary-fabric routes
// /v1/store/{has,get,put} of a Server whose store has a disk tier in a
// fresh directory. Whatever the body, the server must not panic or
// answer 5xx; every non-200 answer must be a typed JSON error
// (bad_request, batch_too_large or body_too_large); and nothing may
// appear on disk outside the store directory, whatever fingerprints a
// peer sends ("../x", absolute paths, empty names).
//
//	go test -fuzz '^FuzzStoreRoutes$' -fuzztime 15s ./internal/serve
func FuzzStoreRoutes(f *testing.F) {
	routes := []string{"/v1/store/has", "/v1/store/get", "/v1/store/put"}
	seed := func(route int, req any) {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(route), body)
	}
	hostile := []string{"aa11", "../escape", "../aa11", "../../bb22", "..", "/tmp/abs", "", "AA11", strings.Repeat("f", 200)}
	seed(0, api.StoreHasRequest{Fingerprints: hostile})
	seed(1, api.StoreGetRequest{Fingerprints: hostile})
	var recs []api.StoreRecord
	for _, fp := range hostile {
		recs = append(recs, api.StoreRecord{Fingerprint: fp, Data: []byte("rec " + fp)})
	}
	seed(2, api.StorePutRequest{Records: recs})
	seed(2, api.StorePutRequest{Records: []api.StoreRecord{{Fingerprint: "bb22", Data: bytes.Repeat([]byte{1}, 2048)}}})
	seed(0, api.StoreHasRequest{Fingerprints: make([]string, api.MaxStoreBatch+1)})
	seed(2, api.StorePutRequest{Records: make([]api.StoreRecord, api.MaxStoreBatch+1)})
	f.Add(uint8(0), []byte(`{"fingerprints":`))
	f.Add(uint8(1), []byte(`null`))
	f.Add(uint8(2), []byte(`{"records":[{"fingerprint":"cc33","data":"not base64!"}]}`))
	f.Add(uint8(2), bytes.Repeat([]byte("["), 64))

	const maxBody = 1 << 12
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "peer", "store")
		store, err := awam.NewStore(awam.WithMemoryBudget(1<<16), awam.WithDiskDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Cache: store, MaxStoreBodyBytes: maxBody, MaxRecordBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		path := routes[int(route)%len(routes)]
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))

		switch {
		case rec.Code >= 500:
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		case rec.Code == http.StatusOK:
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s: 200 with a body that is not JSON: %q", path, rec.Body.Bytes())
			}
		default:
			var eb api.ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatalf("%s: status %d with an untyped body %q: %v", path, rec.Code, rec.Body.Bytes(), err)
			}
			switch eb.Error.Code {
			case "bad_request", "batch_too_large", "body_too_large":
			default:
				t.Fatalf("%s: status %d with error code %q", path, rec.Code, eb.Error.Code)
			}
		}

		// Only the store directory and its ancestors up to root may exist
		// outside the store directory's own contents.
		err = filepath.WalkDir(root, func(p string, _ fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if p == root || p == filepath.Dir(dir) {
				return nil
			}
			if rel, err := filepath.Rel(dir, p); err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
				t.Errorf("%s: %s created outside the store directory %s", path, p, dir)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
