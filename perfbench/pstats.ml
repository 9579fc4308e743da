(* Order statistics for the benchmark's samples.  A percentile is only
   reported when at least [min_beyond] samples lie beyond it, so a p90 needs
   100 samples and a median 20: fewer makes the caller fail loudly rather
   than print a number resting on a handful of jobs. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Pstats.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it. *)
let rank n p = max 1 (int_of_float (ceil (p *. float_of_int n)))

let beyond n p = n - rank n p

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 || beyond n p < min_beyond then None else Some a.(rank n p - 1)

(* Samples needed so that [percentile _ p] is defined. *)
let needed p =
  let rec go n = if beyond n p >= min_beyond then n else go (n + 1) in
  go 1

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
