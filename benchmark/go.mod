module manimal/benchmark

go 1.21

require manimal v0.0.0

replace manimal => ../
