module bcl

go 1.23
