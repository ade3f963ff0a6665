package mlearn

import "testing"

// BenchmarkFit fits one classifier per junction column (91 on EPA-NET)
// over an 800-sample generated EPA-NET dataset, the profile build of the
// figure pipeline. Run with -benchmem.
func BenchmarkFit(b *testing.B) {
	x, y := epanetData(b, 800)
	for _, name := range []string{"rf", "svm", "gb", "hybrid-rsl"} {
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
}
