module approxsim/benchmark

go 1.22

require approxsim v0.0.0

replace approxsim => ../
