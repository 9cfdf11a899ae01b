package oss

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestServerStatusCodes: what the server answers is decided by the store's
// error and the request's arithmetic, never by an error's text or a
// wrapped-around length. A Range header whose end is the top of int64 used
// to make off+n negative and the handler die with the connection.
func TestServerStatusCodes(t *testing.T) {
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faulty := NewFaulty(NewMem())
	faulty.FailGet("key not found")
	for name, store := range map[string]Store{"Mem": NewMem(), "Disk": disk, "Faulty": faulty} {
		if err := store.Put("k", []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
		if err := store.Put("key not found", []byte("here")); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewServer(store))
		// Only under Faulty does the read of this key fail: an injected fault
		// on a key so named is a 500, which a client retries — not a 404,
		// which OpenRepo would read as "no header: new repository".
		namedNotFound := 200
		if name == "Faulty" {
			namedNotFound = 500
		}
		for _, tc := range []struct {
			key, rng string
			code     int
			body     string
		}{
			{"k", "", 200, "0123456789"},
			{"k", "bytes=2-4", 206, "234"},
			{"k", "bytes=5-9223372036854775807", 206, "56789"},
			{"k", "bytes=0-9223372036854775807", 206, "0123456789"},
			{"k", "bytes=9223372036854775807-9223372036854775807", 416, ""},
			{"k", "bytes=11-", 416, ""},
			{"k", "bytes=7-3", 416, ""},
			{"absent", "", 404, ""},
			{"absent", "bytes=0-9223372036854775807", 404, ""},
			{"key not found", "", namedNotFound, ""},
		} {
			req, _ := http.NewRequest(http.MethodGet, srv.URL+"/o/"+strings.ReplaceAll(tc.key, " ", "%20"), nil)
			if tc.rng != "" {
				req.Header.Set("Range", tc.rng)
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatalf("%s: GET %s Range %q: %v (the handler died?)", name, tc.key, tc.rng, err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.code || (tc.body != "" && string(body) != tc.body) {
				t.Errorf("%s: GET %s Range %q = %d %q, want %d %q", name, tc.key, tc.rng, resp.StatusCode, body, tc.code, tc.body)
			}
		}
		srv.Close()
	}
}

// FuzzServerRequest: no method, path, Range header or body makes a handler
// panic, or allocate more than the stored object and the body it was sent
// plus a constant — over the sharing store and over the one that sizes a
// buffer from the range.
func FuzzServerRequest(f *testing.F) {
	disk, err := NewDisk(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	object := make([]byte, 4<<10)
	servers := []*Server{NewServer(NewMem()), NewServer(disk)}
	for _, s := range servers {
		if err := s.store.Put("k", object); err != nil {
			f.Fatal(err)
		}
	}
	f.Add("GET", "/o/k", "bytes=5-9223372036854775807", []byte{})
	f.Add("GET", "/o/k", "bytes=0-9223372036854775807", []byte{})
	f.Add("GET", "/o/k", "bytes=9223372036854775807-", []byte{})
	f.Add("GET", "/o/k", "bytes=-1-5", []byte{})
	f.Add("PUT", "/o/a/b", "", []byte("body"))
	f.Add("HEAD", "/o/k", "", []byte{})
	f.Add("DELETE", "/o/a%2Fb", "", []byte{})
	f.Add("GET", "/list?prefix=a", "", []byte{})
	f.Add("POST", "/o/", "bytes=a-b", []byte{})
	f.Fuzz(func(t *testing.T, method, path, rng string, body []byte) {
		if len(body) > 1<<10 {
			body = body[:1<<10]
		}
		for _, s := range servers {
			// TotalAlloc is the process's: a request over the limit is
			// measured once more, since another goroutine's allocation does
			// not land in both windows.
			got, limit := ^uint64(0), uint64(4*len(object)+8*len(body)+64<<10)
			for try := 0; try < 2 && got > limit; try++ {
				req, err := http.NewRequest(method, "http://oss"+path, strings.NewReader(string(body)))
				if err != nil {
					return
				}
				if rng != "" {
					req.Header.Set("Range", rng)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				s.ServeHTTP(httptest.NewRecorder(), req)
				runtime.ReadMemStats(&after)
				got = min(got, after.TotalAlloc-before.TotalAlloc)
			}
			if got > limit {
				t.Fatalf("%s %s Range %q with a %d-byte body allocated %d, limit %d", method, path, rng, len(body), got, limit)
			}
		}
	})
}
