package triage_test

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"

	"bugnet/internal/cluster"
	"bugnet/internal/report"
	"bugnet/internal/triage"
)

// FuzzVerdictPut drives arbitrary ids and bodies through the verdict
// push route of a one-node cluster, the second untrusted input a node
// takes from the network beside uploads. Whatever arrives: the handler
// does not panic; it answers 204, 400 or 413; a 204 means a done
// verdict for a well-formed id; no .verdict file ever sits beside no
// archive; and the verdicts held without an archive stay bounded.
func FuzzVerdictPut(f *testing.F) {
	img, _, blob := triage.RecordBlob(f)
	reg := triage.NewImageRegistry()
	reg.Register(img)
	dir := f.TempDir()
	s, err := triage.New(triage.Config{Dir: dir, Workers: 1, Resolver: reg.Resolve})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	node, err := cluster.New(cluster.Config{
		Self:     "http://fuzz-node",
		Service:  s,
		SpoolDir: filepath.Join(f.TempDir(), "cluster"),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(node.Close)
	h := node.Handler()

	// One archive is stored, so a verdict for it may become a sidecar.
	stored, err := s.Ingest(blob)
	if err != nil {
		f.Fatal(err)
	}
	s.WaitIdle()
	meta, _ := s.Report(stored.ID)
	if meta.Verdict == nil || meta.Verdict.State != triage.VerdictDone {
		f.Fatalf("stored archive's verdict = %+v", meta.Verdict)
	}
	genuine, err := json.Marshal(meta.Verdict)
	if err != nil {
		f.Fatal(err)
	}
	unknown := report.ID([]byte("no such archive"))
	done := `{"state":"done","reproduced":true,"matches_reported":true,"instructions":5}`
	for _, seed := range []struct{ id, body string }{
		{stored.ID, string(genuine)},
		{unknown, string(genuine)},
		{unknown, `{"state":"done","instructions":7}`},
		{unknown, "not json"},
		{unknown, "keep me"},
		{unknown, `{"verdict":"done","ok":true}`},
		{unknown, `{"state":"done","extra":1}`},
		{unknown, done + done},
		{unknown, `{}`},
		{unknown, `{"state":"pending"}`},
		{unknown, `{"state":"failed","error":"no registered binary"}`},
		{unknown[:40], done},
		{strings.ToUpper(unknown), done},
	} {
		f.Add(seed.id, []byte(seed.body))
	}

	f.Fuzz(func(t *testing.T, id string, body []byte) {
		if id == "" || id == "." || id == ".." || strings.Contains(id, "/") {
			return // not one path segment, so not a request the route sees
		}
		req := httptest.NewRequest(http.MethodPut, "/internal/v1/verdicts/"+url.PathEscape(id), bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusNoContent:
			var v triage.Verdict
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&v); err != nil || v.State != triage.VerdictDone || !report.ValidID(id) {
				t.Fatalf("204 for id %q, body %q", id, body)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("PUT verdict %q: status %d", id, rec.Code)
		}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if vid, ok := strings.CutSuffix(d.Name(), ".verdict"); ok && !s.Store().Has(vid) {
				t.Errorf("%s sits beside no archive", path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := triage.HeldVerdicts(s); n > 1024 {
			t.Fatalf("%d verdicts held without an archive", n)
		}
	})
}
