module echelonflow/benchmark

go 1.22

require echelonflow v0.0.0

replace echelonflow => ../
