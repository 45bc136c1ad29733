package workload

import (
	"strings"
	"testing"
)

const sampleAOL = `AnonID	Query	QueryTime	ItemRank	ClickURL
142	rentdirect.com	2006-03-01 07:17:12
142	staple.com	2006-03-01 17:29:23
217	lottery	2006-03-03 10:01:03
217	lottery	2006-03-03 10:01:08
993	cheap flights to boston	2006-03-05 11:18:29
993	-	2006-03-05 11:19:00
`

func TestParseAOLBasic(t *testing.T) {
	qs, err := ParseAOL(strings.NewReader(sampleAOL),
		AOLParseOptions{VocabSize: 1000, SkipHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 5 { // "-" line dropped
		t.Fatalf("parsed %d queries", len(qs))
	}
	// Identical query strings must share an ID (result-cache repetitions).
	if qs[2].ID != qs[3].ID {
		t.Fatal("repeated query got different IDs")
	}
	if qs[0].ID == qs[1].ID {
		t.Fatal("distinct queries share an ID")
	}
	// Multi-token query is truncated to MaxTermsPerQuery (default 3).
	if len(qs[4].Terms) != 3 {
		t.Fatalf("'cheap flights to boston' -> %d terms", len(qs[4].Terms))
	}
	for _, q := range qs {
		for _, term := range q.Terms {
			if int(term) < 0 || int(term) >= 1000 {
				t.Fatalf("term %d outside vocab", term)
			}
		}
	}
}

func TestParseAOLTokenStability(t *testing.T) {
	in := "1\tlottery numbers\t-\n2\tlottery results\t-\n"
	qs, err := ParseAOL(strings.NewReader(in), AOLParseOptions{VocabSize: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if qs[0].Terms[0] != qs[1].Terms[0] {
		t.Fatal("shared token 'lottery' mapped to different terms")
	}
}

func TestParseAOLLimit(t *testing.T) {
	in := "1\ta\t-\n2\tb\t-\n3\tc\t-\n"
	qs, err := ParseAOL(strings.NewReader(in), AOLParseOptions{VocabSize: 100, Limit: 2})
	if err != nil || len(qs) != 2 {
		t.Fatalf("limit: %d, %v", len(qs), err)
	}
}

func TestParseAOLCaseFolding(t *testing.T) {
	in := "1\tLottery\t-\n2\tlottery\t-\n"
	qs, err := ParseAOL(strings.NewReader(in), AOLParseOptions{VocabSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if qs[0].ID != qs[1].ID {
		t.Fatal("case-folded duplicates got different IDs")
	}
}

func TestParseAOLValidation(t *testing.T) {
	if _, err := ParseAOL(strings.NewReader("x"), AOLParseOptions{}); err == nil {
		t.Fatal("zero vocab accepted")
	}
}

func TestParseAOLDuplicateTokens(t *testing.T) {
	in := "1\tnew york new york\t-\n"
	qs, err := ParseAOL(strings.NewReader(in), AOLParseOptions{VocabSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs[0].Terms) != 2 {
		t.Fatalf("duplicate tokens not deduped: %d terms", len(qs[0].Terms))
	}
}

func TestReplayLogCycles(t *testing.T) {
	qs := []Query{{ID: 1}, {ID: 2}, {ID: 3}}
	l := NewReplayLog(qs)
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	got := []uint64{}
	for i := 0; i < 7; i++ {
		got = append(got, l.Next().ID)
	}
	want := []uint64{1, 2, 3, 1, 2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
	if l.Produced() != 7 {
		t.Fatalf("Produced = %d", l.Produced())
	}
}

func TestReplayLogEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty replay log accepted")
		}
	}()
	NewReplayLog(nil)
}

func TestFNVStable(t *testing.T) {
	// Guard the hash against accidental changes: query IDs derived from
	// it key the result cache, so a new hash moves replayed-log results.
	if fnv64("lottery") != fnv64("lottery") {
		t.Fatal("hash unstable")
	}
	if fnv64("") != 14695981039346656037 {
		t.Fatalf("FNV offset basis wrong: %d", fnv64(""))
	}
}
