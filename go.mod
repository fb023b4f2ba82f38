module manimal

// CI builds and every recorded benchmark number use go1.24, but this
// directive stays at 1.21: the frozen benchmark harness is a module of its
// own (benchmark/go.mod: go 1.21, replace manimal => ../, built with
// -mod=readonly), and a module may not declare a lower go version than a
// module it requires. Use only what go1.21 has.
go 1.21
