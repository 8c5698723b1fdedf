package catalog

import (
	"testing"
	"testing/quick"
)

func TestDuplicateStreamPanics(t *testing.T) {
	c := New()
	c.AddStream(&Stream{Name: "s"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddStream did not panic")
		}
	}()
	c.AddStream(&Stream{Name: "s"})
}

func TestDuplicateUDOPanics(t *testing.T) {
	c := New()
	c.AddUDO(&UDO{Name: "u"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddUDO did not panic")
		}
	}()
	c.AddUDO(&UDO{Name: "u"})
}

func TestStreamNamesSorted(t *testing.T) {
	c := New()
	c.AddStream(&Stream{Name: "b"})
	c.AddStream(&Stream{Name: "a"})
	got := c.StreamNames()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("StreamNames = %v", got)
	}
}

func TestTrueRowsDeterministic(t *testing.T) {
	s := &Stream{Name: "s", BaseRows: 1e6, DailySigma: 0.3, GrowthPerDay: 1.01}
	if s.TrueRows(3) != s.TrueRows(3) {
		t.Fatal("TrueRows not deterministic")
	}
	if s.TrueRows(3) == s.TrueRows(4) {
		t.Fatal("TrueRows identical across days despite variance")
	}
}

func TestTrueRowsPerStreamIndependent(t *testing.T) {
	a := &Stream{Name: "a", BaseRows: 1e6, DailySigma: 0.3, GrowthPerDay: 1}
	b := &Stream{Name: "b", BaseRows: 1e6, DailySigma: 0.3, GrowthPerDay: 1}
	same := 0
	for d := 0; d < 20; d++ {
		if a.TrueRows(d) == b.TrueRows(d) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/20 days identical across distinct streams", same)
	}
}

func TestTrueRowsGrowthTrend(t *testing.T) {
	s := &Stream{Name: "s", BaseRows: 1e6, DailySigma: 0, GrowthPerDay: 1.05}
	if s.TrueRows(10) <= s.TrueRows(0) {
		t.Fatalf("growth trend absent: day0=%v day10=%v", s.TrueRows(0), s.TrueRows(10))
	}
}

func TestTrueRowsFloor(t *testing.T) {
	s := &Stream{Name: "s", BaseRows: 0.001, DailySigma: 0, GrowthPerDay: 1}
	if s.TrueRows(0) < 1 {
		t.Fatal("TrueRows below 1")
	}
}

func TestCorrelationFactor(t *testing.T) {
	s := &Stream{
		Name:         "s",
		Correlations: []Correlation{{A: "x", B: "y", Factor: 4}},
	}
	if got := s.CorrelationFactor("x", "y"); got != 4 {
		t.Fatalf("factor(x,y) = %v", got)
	}
	if got := s.CorrelationFactor("y", "x"); got != 4 {
		t.Fatalf("factor is not symmetric: %v", got)
	}
	if got := s.CorrelationFactor("x", "z"); got != 1 {
		t.Fatalf("uncorrelated pair factor = %v", got)
	}
}

func TestColumnLookup(t *testing.T) {
	s := &Stream{Columns: []Column{{Name: "a"}, {Name: "b"}}}
	if s.Column("b") == nil || s.Column("nope") != nil {
		t.Fatal("Column lookup wrong")
	}
}

func TestSkewFanoutProperties(t *testing.T) {
	// Fanout is >= 1 and increases with skew.
	f := func(d uint16, z8 uint8) bool {
		d64 := float64(d%5000) + 2
		z := float64(z8%30) / 10 // [0, 3)
		f1 := skewOf(d64, z).Fanout
		if f1 < 1 {
			return false
		}
		return skewOf(d64, z+0.5).Fanout >= f1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if skewOf(100, 0).Fanout != 1 {
		t.Fatal("zero skew fanout must be 1")
	}
	if skewOf(1, 2).Fanout != 1 {
		t.Fatal("single-value fanout must be 1")
	}
}
