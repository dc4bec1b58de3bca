package triage

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/kernel"
	"bugnet/internal/report"
)

// TestHTTPCursorPagination walks both listings page by page via the
// opaque cursors and checks the union is exact and duplicate-free.
func TestHTTPCursorPagination(t *testing.T) {
	img, _, _ := recordBlob(t)
	reg := NewImageRegistry()
	reg.Register(img)
	s := newService(t, reg)
	mux := http.NewServeMux()
	RegisterRoutes(mux, s)
	srv := httptest.NewServer(mux)
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
