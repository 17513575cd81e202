// The benchmark is a module of its own, nested in the repository: the root
// module's `go build ./...` and `go test ./...` do not reach it. Its import
// path keeps the prefix declpat/, so it may import declpat/internal/...
module declpat/bench

go 1.24

require declpat v0.0.0

replace declpat => ../
