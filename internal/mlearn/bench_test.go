package mlearn

import "testing"

// BenchmarkFit fits one classifier per junction column (91 on EPA-NET)
// over an 800-sample generated EPA-NET dataset, the profile build of the
// figure pipeline. Its linear-grid row fits the ridge bank of the
// corpus-grid benchmark's shape (1024 columns over 2000 samples of 63
// sensors; see gridData), generated on first use in a few seconds. Run
// with -benchmem.
func BenchmarkFit(b *testing.B) {
	x, y := epanetData(b, 800)
	for _, name := range []string{"rf", "svm", "gb", "hybrid-rsl", "linear"} {
		b.Run(name, func(b *testing.B) {
			factory := namedFactory(b, name)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := NewMultiOutput(factory, 77).Fit(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("linear-grid", func(b *testing.B) {
		x, y := gridData(b)
		factory := namedFactory(b, "linear")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := NewMultiOutput(factory, 77).Fit(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// predictSink keeps BenchmarkPredict's result live.
var predictSink float64

// BenchmarkPredict evaluates one row through MultiOutput.PredictProbaInto
// on a bank fitted on the 800-sample EPA-NET dataset (91 junction
// columns, depth-10 trees), the served profile shape. Run with
// -benchmem; every row must report 0 allocs/op.
func BenchmarkPredict(b *testing.B) {
	x, y := epanetData(b, 800)
	for _, name := range []string{"rf", "gb", "hybrid-rsl"} {
		b.Run(name, func(b *testing.B) {
			mo := NewMultiOutput(namedFactory(b, name), 77)
			if err := mo.Fit(x, y); err != nil {
				b.Fatal(err)
			}
			out := make([]float64, mo.Outputs())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := mo.PredictProbaInto(x[i%len(x)], out); err != nil {
					b.Fatal(err)
				}
			}
			predictSink = out[0]
		})
	}
}
