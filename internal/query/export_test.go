package query

// WithPageRank sets the shared PageRank job's rounds cap and fixed-point
// tolerance, so a test can make the job run long enough to cancel mid-run.
func WithPageRank(maxIters int, tolerance int64) Option {
	return func(s *Service) {
		s.pr.MaxIters = maxIters
		s.pr.Tolerance = tolerance
	}
}
