let run ctx ~n ~a ~b =
  let create init =
    Skeletons.create ctx ~cost:Calibration.fold_conv_op ~gsize:[| n; n |]
      ~distr:Darray.Torus2d init
  in
  let da = create a in
  let db = create b in
  let dc = create (fun _ -> 0.0) in
  Skeletons.gen_mult ctx ~cost:Calibration.float_madd_op
    ~block:(Skeletons.generic_block ~add:( +. ) ~mul:( *. ))
    da db dc;
  Skeletons.destroy ctx da;
  Skeletons.destroy ctx db;
  dc

let product ctx ~n ~a ~b =
  let dc = run ctx ~n ~a ~b in
  let flat = Skeletons.to_flat ctx dc in
  Skeletons.destroy ctx dc;
  flat

let reference ~n ~a ~b =
  let av = Array.init (n * n) (fun off -> a [| off / n; off mod n |]) in
  let bv = Array.init (n * n) (fun off -> b [| off / n; off mod n |]) in
  let c = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      let aik = av.((i * n) + k) in
      for j = 0 to n - 1 do
        c.((i * n) + j) <- c.((i * n) + j) +. (aik *. bv.((k * n) + j))
      done
    done
  done;
  c
