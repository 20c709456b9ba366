package sqldb

import (
	"math/rand"
	"testing"
)

// likeDP is LIKE by dynamic programming over bytes: cur[i] says whether
// pattern[:j] matches s[:i]. It is the reference likeMatch is held to.
func likeDP(s, pattern string) bool {
	prev := make([]bool, len(s)+1)
	cur := make([]bool, len(s)+1)
	prev[0] = true
	for j := 0; j < len(pattern); j++ {
		pc := pattern[j]
		cur[0] = prev[0] && pc == '%'
		for i := 1; i <= len(s); i++ {
			switch pc {
			case '%':
				cur[i] = cur[i-1] || prev[i]
			case '_':
				cur[i] = prev[i-1]
			default:
				cur[i] = prev[i-1] && s[i-1] == pc
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(s)]
}

// likeWord is a random string of up to n bytes over alphabet.
func likeWord(r *rand.Rand, alphabet string, n int) string {
	b := make([]byte, r.Intn(n+1))
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

// FuzzLikeMatch holds likeMatch to likeDP. The seed corpus — run by every
// `go test` — is the hand cases plus random strings over a small alphabet
// and patterns of %, _ and the same literals, so matches and near misses
// are both common.
func FuzzLikeMatch(f *testing.F) {
	for _, c := range [][2]string{
		{"", ""}, {"", "%"}, {"", "_"}, {"a", "%%"}, {"abc", "a%%c"},
		{"mississippi", "m%iss%ppi"}, {"mississippi", "%s_s%p_"}, {"aaab", "%a%ab"},
		{"100%", "100%"}, {"a_b", "a\\_b"}, {"ab", "%b%"}, {"ba", "%b_"},
	} {
		f.Add(c[0], c[1])
	}
	r := rand.New(rand.NewSource(1))
	for k := 0; k < 500; k++ {
		f.Add(likeWord(r, "ab%", 10), likeWord(r, "ab%_", 6))
	}
	f.Fuzz(func(t *testing.T, s, pattern string) {
		if got, want := likeMatch(s, pattern), likeDP(s, pattern); got != want {
			t.Fatalf("likeMatch(%q, %q) = %v, the reference says %v", s, pattern, got, want)
		}
	})
}

// TestLikeMatchAllocs: a LIKE over a scanned row allocates nothing.
func TestLikeMatchAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { likeMatch("a long item description to scan", "%item%scan") }); n != 0 {
		t.Fatalf("likeMatch allocates %v times", n)
	}
}
