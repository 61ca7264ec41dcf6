module bayessuite/benchmark

go 1.22

require bayessuite v0.0.0

replace bayessuite => ../
