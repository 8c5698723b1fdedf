module steerq/benchmark

go 1.22

require steerq v0.0.0

replace steerq => ../
