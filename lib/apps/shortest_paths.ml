let infinity_weight = max_int / 4

let adjusted_n ~n ~q = if n mod q = 0 then n else ((n / q) + 1) * q

let log2_ceil n =
  let rec go k pow = if pow >= n then k else go (k + 1) (2 * pow) in
  go 0 1

(* The paper's shpaths procedure, transcribed: arrays a (distances), b (copy
   of a) and c (accumulator, initialized to "infinity"), then log2 n rounds
   of  copy a b;  c := min/plus product of a and b;  copy c a. *)
let run ctx ~n ~weight =
  let gsize = [| n; n |] in
  let create init =
    Skeletons.create ctx ~cost:Calibration.fold_conv_op ~gsize
      ~distr:Darray.Torus2d init
  in
  let a = create weight in
  let b = create (fun _ -> 0) in
  let c = create (fun _ -> infinity_weight) in
  let saturating_add x y =
    let s = x + y in
    if s > infinity_weight then infinity_weight else s
  in
  for _ = 1 to log2_ceil n do
    Skeletons.copy ctx a b;
    Skeletons.gen_mult ctx ~cost:Calibration.minplus_op
      ~block:(Skeletons.generic_block ~add:min ~mul:saturating_add)
      a b c;
    Skeletons.copy ctx c a
  done;
  Skeletons.destroy ctx b;
  Skeletons.destroy ctx c;
  a

let distances ctx ~n ~weight =
  let a = run ctx ~n ~weight in
  let flat = Skeletons.to_flat ctx a in
  Skeletons.destroy ctx a;
  flat

let floyd_warshall ~n ~weight =
  let d = Array.init (n * n) (fun off -> weight [| off / n; off mod n |]) in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      let dik = d.((i * n) + k) in
      if dik < infinity_weight then
        for j = 0 to n - 1 do
          let through = dik + d.((k * n) + j) in
          if through < d.((i * n) + j) then d.((i * n) + j) <- through
        done
    done
  done;
  d
