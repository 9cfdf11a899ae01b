package oss

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

// StatusError is an HTTP response the client treats as an error. Retry's
// default classifier consults the code: 4xx (except 429) is permanent,
// 5xx transient.
type StatusError struct {
	Op   string
	Key  string
	Code int
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("oss: %s %s: status %d %s", e.Op, e.Key, e.Code, http.StatusText(e.Code))
}

// Server exposes a Store over an S3-like HTTP dialect:
//
//	PUT    /o/<key>            store object body
//	GET    /o/<key>            fetch object (honours Range: bytes=a-b)
//	HEAD   /o/<key>            size via Content-Length
//	DELETE /o/<key>            delete object
//	GET    /list?prefix=<p>    newline-separated keys
//
// It is the substrate for multi-process deployments and for the ossserver
// binary; in-process experiments use Mem directly.
type Server struct {
	store    Store
	mux      *http.ServeMux
	maxBytes int64
}

// DefaultMaxObjectBytes bounds PUT bodies. Containers are a few MiB;
// 256 MiB leaves headroom for recipe and index objects while keeping a
// misbehaving client from exhausting server memory.
const DefaultMaxObjectBytes = 256 << 20

// NewServer wraps store in an HTTP handler.
func NewServer(store Store) *Server {
	s := &Server{store: store, mux: http.NewServeMux(), maxBytes: DefaultMaxObjectBytes}
	s.mux.HandleFunc("/o/", s.handleObject)
	s.mux.HandleFunc("/list", s.handleList)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

// SetMaxObjectBytes overrides the PUT body limit (n <= 0 keeps the
// default).
func (s *Server) SetMaxObjectBytes(n int64) {
	if n > 0 {
		s.maxBytes = n
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	key, err := url.PathUnescape(strings.TrimPrefix(r.URL.Path, "/o/"))
	if err != nil || key == "" {
		http.Error(w, "bad key", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodPut:
		if r.ContentLength > s.maxBytes {
			http.Error(w, fmt.Sprintf("object exceeds %d byte limit", s.maxBytes),
				http.StatusRequestEntityTooLarge)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBytes))
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				http.Error(w, fmt.Sprintf("object exceeds %d byte limit", s.maxBytes),
					http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.store.Put(key, body); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusCreated)
	case http.MethodGet:
		if rng := r.Header.Get("Range"); rng != "" {
			off, n, ok := parseRange(rng)
			if !ok {
				http.Error(w, "bad range", http.StatusRequestedRangeNotSatisfiable)
				return
			}
			data, err := s.store.GetRange(key, off, n)
			if err != nil {
				writeStoreErr(w, err)
				return
			}
			w.WriteHeader(http.StatusPartialContent)
			w.Write(data)
			return
		}
		data, err := s.store.Get(key)
		if err != nil {
			writeStoreErr(w, err)
			return
		}
		w.Write(data)
	case http.MethodHead:
		n, err := s.store.Head(key)
		if err != nil {
			writeStoreErr(w, err)
			return
		}
		w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
		w.WriteHeader(http.StatusOK)
	case http.MethodDelete:
		if err := s.store.Delete(key); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	keys, err := s.store.List(r.URL.Query().Get("prefix"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintln(w, k)
	}
}

func writeStoreErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, errRange):
		code = http.StatusRequestedRangeNotSatisfiable
	}
	http.Error(w, err.Error(), code)
}

// parseRange parses "bytes=a-b" (inclusive b) or "bytes=a-" into GetRange's
// (off, n). A b at the top of int64 means "to the end": its length would
// not fit, and no object reaches it.
func parseRange(h string) (off, n int64, ok bool) {
	h = strings.TrimPrefix(h, "bytes=")
	parts := strings.SplitN(h, "-", 2)
	if len(parts) != 2 {
		return 0, 0, false
	}
	off, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil || off < 0 {
		return 0, 0, false
	}
	if parts[1] == "" {
		return off, -1, true
	}
	end, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil || end < off {
		return 0, 0, false
	}
	if end == math.MaxInt64 {
		return off, -1, true
	}
	return off, end - off + 1, true
}

// Client is a Store that talks to a Server over HTTP.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for a server at baseURL (e.g.
// "http://localhost:9000"). hc may be nil to use http.DefaultClient.
func NewClient(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimSuffix(baseURL, "/"), hc: hc}
}

func (c *Client) objURL(key string) string {
	return c.base + "/o/" + url.PathEscape(key)
}

// Put implements Store.
func (c *Client) Put(key string, data []byte) error {
	req, err := http.NewRequest(http.MethodPut, c.objURL(key), strings.NewReader(string(data)))
	if err != nil {
		return fmt.Errorf("oss: put %s: %w", key, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("oss: put %s: %w", key, err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusCreated {
		return &StatusError{Op: "put", Key: key, Code: resp.StatusCode}
	}
	return nil
}

// Get implements Store.
func (c *Client) Get(key string) ([]byte, error) {
	resp, err := c.hc.Get(c.objURL(key))
	if err != nil {
		return nil, fmt.Errorf("oss: get %s: %w", key, err)
	}
	defer drain(resp)
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{Op: "get", Key: key, Code: resp.StatusCode}
	}
	return io.ReadAll(resp.Body)
}

// GetRange implements Store.
func (c *Client) GetRange(key string, off, n int64) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.objURL(key), nil)
	if err != nil {
		return nil, fmt.Errorf("oss: get range %s: %w", key, err)
	}
	if n < 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", off))
	} else {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+n-1))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("oss: get range %s: %w", key, err)
	}
	defer drain(resp)
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if resp.StatusCode != http.StatusPartialContent && resp.StatusCode != http.StatusOK {
		return nil, &StatusError{Op: "get range", Key: key, Code: resp.StatusCode}
	}
	return io.ReadAll(resp.Body)
}

// Head implements Store.
func (c *Client) Head(key string) (int64, error) {
	resp, err := c.hc.Head(c.objURL(key))
	if err != nil {
		return 0, fmt.Errorf("oss: head %s: %w", key, err)
	}
	defer drain(resp)
	if resp.StatusCode == http.StatusNotFound {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, &StatusError{Op: "head", Key: key, Code: resp.StatusCode}
	}
	return resp.ContentLength, nil
}

// Delete implements Store.
func (c *Client) Delete(key string) error {
	req, err := http.NewRequest(http.MethodDelete, c.objURL(key), nil)
	if err != nil {
		return fmt.Errorf("oss: delete %s: %w", key, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("oss: delete %s: %w", key, err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusNoContent {
		return &StatusError{Op: "delete", Key: key, Code: resp.StatusCode}
	}
	return nil
}

// List implements Store.
func (c *Client) List(prefix string) ([]string, error) {
	resp, err := c.hc.Get(c.base + "/list?prefix=" + url.QueryEscape(prefix))
	if err != nil {
		return nil, fmt.Errorf("oss: list %q: %w", prefix, err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{Op: "list", Key: prefix, Code: resp.StatusCode}
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("oss: list %q: %w", prefix, err)
	}
	var out []string
	for _, line := range strings.Split(string(body), "\n") {
		if line != "" {
			out = append(out, line)
		}
	}
	return out, nil
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
