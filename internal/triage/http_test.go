package triage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/httpjson"
	"bugnet/internal/kernel"
	"bugnet/internal/report"
)

func TestHTTPEndpoints(t *testing.T) {
	img, _, blob := recordBlob(t)
	reg := NewImageRegistry()
	reg.Register(img)
	s := newService(t, reg)
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	// Upload.
	resp, err := http.Post(srv.URL+"/api/v1/reports", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /api/v1/reports: %s", resp.Status)
	}
	var ing IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Duplicate upload answers 200.
	resp, err = http.Post(srv.URL+"/api/v1/reports", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate POST: %s", resp.Status)
	}

	// Garbage answers 400 with the standard envelope and a stable code.
	resp, err = http.Post(srv.URL+"/api/v1/reports", "application/octet-stream", bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage POST: %s", resp.Status)
	}
	assertEnvelope(t, resp, httpjson.CodeBadRequest)

	s.WaitIdle()

	// Report metadata.
	var meta ReportMeta
	getJSON(t, srv.URL+"/api/v1/reports/"+ing.ID, &meta)
	if meta.ID != ing.ID || meta.Verdict == nil || meta.Verdict.State != VerdictDone {
		t.Fatalf("report meta = %+v", meta)
	}

	// Raw blob round-trips byte-exact.
	resp, err = http.Get(srv.URL + "/api/v1/reports/" + ing.ID + "?raw=1")
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(raw.Bytes(), blob) {
		t.Fatal("raw download differs from upload")
	}

	// Buckets (unified listing envelope; one page, so no cursor).
	var buckets Listing[Bucket]
	getJSON(t, srv.URL+"/api/v1/buckets", &buckets)
	if len(buckets.Items) != 1 || buckets.NextCursor != "" ||
		buckets.Items[0].Count != 2 || buckets.Items[0].Key != ing.BucketKey {
		t.Fatalf("buckets = %+v", buckets)
	}

	// Report listing, same envelope.
	var reports Listing[ReportMeta]
	getJSON(t, srv.URL+"/api/v1/reports", &reports)
	if len(reports.Items) != 1 || reports.NextCursor != "" || reports.Items[0].ID != ing.ID {
		t.Fatalf("reports = %+v", reports)
	}
	var b Bucket
	getJSON(t, srv.URL+"/api/v1/buckets/"+ing.BucketKey, &b)
	if b.Verdict == nil || !b.Verdict.Reproduced {
		t.Fatalf("bucket verdict = %+v", b.Verdict)
	}

	// Health.
	var health map[string]any
	getJSON(t, srv.URL+"/healthz", &health)
	if health["status"] != "ok" || health["reports"].(float64) != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	// Unknowns answer 404 with the envelope.
	for _, path := range []string{"/api/v1/reports/deadbeef", "/api/v1/buckets/nope"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			resp.Body.Close()
			t.Errorf("GET %s: %s", path, resp.Status)
			continue
		}
		assertEnvelope(t, resp, httpjson.CodeNotFound)
	}

	// A corrupt cursor fails loudly instead of silently restarting.
	resp, err = http.Get(srv.URL + "/api/v1/reports?cursor=%21%21not-base64")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cursor: %s", resp.Status)
	}
	assertEnvelope(t, resp, httpjson.CodeBadRequest)
}

// TestHTTPCursorPagination walks both listings page by page via the
// opaque cursors and checks the union is exact and duplicate-free.
func TestHTTPCursorPagination(t *testing.T) {
	img, _, _ := recordBlob(t)
	reg := NewImageRegistry()
	reg.Register(img)
	s := newService(t, reg)
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	// Seven distinct recordings (varying data tables -> distinct logs ->
	// distinct content addresses) make three pages of three.
	want := make(map[string]bool)
	for i := 0; i < 7; i++ {
		res, err := s.Ingest(variantBlob(t, i))
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		want[res.ID] = true
	}
	s.WaitIdle()

	got := make(map[string]bool)
	cursor := ""
	pages := 0
	for {
		url := srv.URL + "/api/v1/reports?limit=3"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		var page Listing[ReportMeta]
		getJSON(t, url, &page)
		if len(page.Items) > 3 {
			t.Fatalf("limit ignored: %d items", len(page.Items))
		}
		for _, m := range page.Items {
			if got[m.ID] {
				t.Fatalf("id %s served twice", m.ID)
			}
			got[m.ID] = true
		}
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(got) != len(want) {
		t.Fatalf("pagination returned %d ids, want %d", len(got), len(want))
	}
	if pages < 3 {
		t.Fatalf("expected >= 3 pages of 3 for 7 reports, got %d", pages)
	}

	// Bucket pagination uses the same envelope.
	var bpage Listing[Bucket]
	getJSON(t, srv.URL+"/api/v1/buckets?limit=2", &bpage)
	if len(bpage.Items) > 2 {
		t.Fatalf("bucket limit ignored: %d items", len(bpage.Items))
	}
}

// variantBlob records the crash demo with a mutated data table, yielding
// a valid archive with a distinct content address per i.
func variantBlob(t *testing.T, i int) []byte {
	t.Helper()
	src := fmt.Sprintf(`
        .data
tbl:    .word %d, %d, 7, 0
        .text
main:   la   t0, tbl
        li   s0, 0
sum:    lw   t1, (t0)
        beqz t1, done
        add  s0, s0, t1
        addi t0, t0, 4
        j    sum
done:   la   t2, tbl
        lw   t3, 12(t2)
boom:   lw   a0, (t3)
`, 3*i+1, 3*i+2)
	img, err := asm.Assemble(fmt.Sprintf("variant%d.s", i), src)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, _ := core.Record(img, kernel.Config{}, core.Config{IntervalLength: 16})
	if res.Crash == nil {
		t.Fatalf("variant %d did not crash", i)
	}
	blob, err := report.Pack(rep)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// assertEnvelope checks a failure response carries the standardized
// error envelope with the expected stable code. Closes the body.
func assertEnvelope(t *testing.T, resp *http.Response, wantCode string) {
	t.Helper()
	defer resp.Body.Close()
	var env httpjson.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error body is not the envelope: %v", err)
	}
	if env.Error.Code != wantCode {
		t.Fatalf("error code = %q, want %q (message %q)", env.Error.Code, wantCode, env.Error.Message)
	}
	if env.Error.Message == "" {
		t.Fatal("error envelope has empty message")
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
