(* Differential tests between the two execution engines: the compiled
   engine (Compile, translation to closures) must be bit-identical to the
   reference tree-walking interpreter — same printed output per processor,
   same return values, same simulated makespan, same Stats counters, same
   structured trace. *)

let read path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let examples_dir () =
  List.find_opt Sys.file_exists
    [ "../examples/skil"; "examples/skil"; "../../../examples/skil" ]

let source name =
  match examples_dir () with
  | Some d -> read (Filename.concat d name)
  | None -> Alcotest.failf "cannot find examples/skil"

(* entry point, arguments and topology for every shipped example *)
let corpus =
  [
    ("quicksort.skil", "main", [], `Mesh (2, 2));
    ("shpaths.skil", "shpaths", [ Value.VInt 8 ], `Torus (2, 2));
    ("gauss.skil", "gauss", [ Value.VInt 8 ], `Mesh (2, 1));
    ("matmul.skil", "matmul", [ Value.VInt 8 ], `Torus (2, 2));
    ("threshold.skil", "main", [ Value.VInt 8 ], `Mesh (2, 1));
    ("jacobi.skil", "jacobi", [ Value.VInt 16 ], `Mesh (2, 2));
  ]

let topology = function
  | `Mesh (w, h) -> Topology.mesh ~width:w ~height:h
  | `Torus (w, h) -> Topology.torus2d ~width:w ~height:h ()

let exact = Alcotest.float 0.0

let check_identical name ra rc =
  let nprocs = Array.length ra.Machine.values in
  Alcotest.(check int)
    (name ^ " nprocs") nprocs
    (Array.length rc.Machine.values);
  for i = 0 to nprocs - 1 do
    let oa = ra.Machine.values.(i) and oc = rc.Machine.values.(i) in
    Alcotest.(check string)
      (Printf.sprintf "%s printed[%d]" name i)
      oa.Spmd.printed oc.Spmd.printed;
    Alcotest.(check string)
      (Printf.sprintf "%s value[%d]" name i)
      (Value.describe oa.Spmd.value)
      (Value.describe oc.Spmd.value)
  done;
  Alcotest.check exact (name ^ " makespan") ra.Machine.time rc.Machine.time;
  let sa = ra.Machine.stats and sc = rc.Machine.stats in
  Alcotest.check exact
    (name ^ " stats makespan")
    sa.Stats.makespan sc.Stats.makespan;
  Array.iteri
    (fun i pa ->
      let pc = Stats.proc sc i in
      let f fld a b =
        Alcotest.check exact (Printf.sprintf "%s %s[%d]" name fld i) a b
      in
      let g fld a b =
        Alcotest.(check int) (Printf.sprintf "%s %s[%d]" name fld i) a b
      in
      f "compute" pa.Stats.compute_time pc.Stats.compute_time;
      f "wait" pa.Stats.comm_wait pc.Stats.comm_wait;
      f "overhead" pa.Stats.overhead_time pc.Stats.overhead_time;
      g "msgs" pa.Stats.msgs_sent pc.Stats.msgs_sent;
      g "bytes" pa.Stats.bytes_sent pc.Stats.bytes_sent;
      g "hop_bytes" pa.Stats.hop_bytes pc.Stats.hop_bytes;
      g "skeleton_calls" pa.Stats.skeleton_calls pc.Stats.skeleton_calls)
    sa.Stats.procs;
  Alcotest.(check string)
    (name ^ " trace")
    (Profile.chrome_json ra.Machine.trace ~nprocs)
    (Profile.chrome_json rc.Machine.trace ~nprocs)

(* three-way: the reference interpreter, the compiled engine with payload
   specialisation (the default), and the compiled engine with every array
   element kept boxed (--no-specialize) must all agree bit-for-bit *)
let run_both ?cost ?(instantiate = true) ~topology src ~entry ~args name =
  let go ?(specialize = true) engine =
    Spmd.run_source ?cost ~instantiate ~engine ~specialize ~trace:true
      ~topology src ~entry ~args
  in
  let ra = go `Ast in
  check_identical name ra (go `Compiled);
  check_identical (name ^ " (no-specialize)") ra
    (go ~specialize:false `Compiled)

let test_corpus_equivalence () =
  List.iter
    (fun (file, entry, args, topo) ->
      let src = source file in
      run_both ~topology:(topology topo) src ~entry ~args file;
      (* the higher-order source, without translation by instantiation *)
      run_both ~instantiate:false ~topology:(topology topo) src ~entry ~args
        (file ^ " (no-instantiate)"))
    corpus

(* every shipped example must be covered by the differential harness *)
let test_corpus_is_exhaustive () =
  match examples_dir () with
  | None -> Alcotest.fail "cannot find examples/skil"
  | Some d ->
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".skil" then
            Alcotest.(check bool)
              (f ^ " has an engine-equivalence entry")
              true
              (List.exists (fun (n, _, _, _) -> n = f) corpus))
        (Sys.readdir d)

let test_cost_profiles_equivalence () =
  let src = source "gauss.skil" in
  List.iter
    (fun profile ->
      run_both
        ~cost:(Cost_model.make profile)
        ~topology:(Topology.mesh ~width:2 ~height:1)
        src ~entry:"gauss" ~args:[ Value.VInt 8 ]
        ("gauss " ^ profile.Cost_model.profile_name))
    [ Cost_model.parix_c; Cost_model.dpfl ]

(* array_gen_mult whose operator arguments are user functions has no
   monomorphic block kernel: the compiled engine falls back to the generic
   block loop over the user function, and must stay identical to the
   interpreter (values, makespan, Stats, trace) — at int and at float, and
   next to a kernel-eligible call in the same program. *)
let user_op_gen_mult_src =
  {|
int init_i(Index ix) { return (ix[0] * 7 + ix[1] * 13) % 9; }
int inf_elem(Index ix) { return int_max; }
float init_f(Index ix) { return itof((ix[0] * 3 + ix[1]) % 5) / 2.0; }
float zero_f(Index ix) { return 0.0; }
int plus(int a, int b) { return a + b; }
float fplus(float a, float b) { return a + b; }

void main(int n) {
  array<int> a;
  array<int> b;
  array<int> c;
  array<float> fa;
  array<float> fb;
  array<float> fc;
  a = array_create(2, {n,n}, {0,0}, {-1,-1}, init_i, DISTR_TORUS2D);
  b = array_create(2, {n,n}, {0,0}, {-1,-1}, init_i, DISTR_TORUS2D);
  c = array_create(2, {n,n}, {0,0}, {-1,-1}, inf_elem, DISTR_TORUS2D);
  array_gen_mult(a, b, min, plus, c);
  array_gen_mult(a, b, min, (+), c);
  fa = array_create(2, {n,n}, {0,0}, {-1,-1}, init_f, DISTR_TORUS2D);
  fb = array_create(2, {n,n}, {0,0}, {-1,-1}, init_f, DISTR_TORUS2D);
  fc = array_create(2, {n,n}, {0,0}, {-1,-1}, zero_f, DISTR_TORUS2D);
  array_gen_mult(fa, fb, fplus, (*), fc);
  if (procId == 0) {
    for (int j = 0; j < n / 2; j++) {
      print_int(array_get_elem(c, {0, j}));
      print_string(" ");
      print_float(array_get_elem(fc, {0, j}));
      print_string(" ");
    }
  }
  array_destroy(a);
  array_destroy(b);
  array_destroy(c);
  array_destroy(fa);
  array_destroy(fb);
  array_destroy(fc);
}
|}

let test_user_op_gen_mult_falls_back () =
  run_both
    ~topology:(Topology.torus2d ~width:2 ~height:2 ())
    user_op_gen_mult_src ~entry:"main" ~args:[ Value.VInt 16 ]
    "gen_mult with user-defined operators"

(* ---------------- satellite regressions ---------------- *)

let test_pointer_comparison_semantics () =
  let p = Value.VPtr (ref (Value.VInt 1)) in
  let q = Value.VPtr (ref (Value.VInt 1)) in
  (* equality is physical; NULL only equals NULL *)
  Alcotest.(check bool) "p == p" true (Interp.equal_values p p);
  Alcotest.(check bool) "p == q" false (Interp.equal_values p q);
  Alcotest.(check bool) "NULL == NULL" true
    (Interp.equal_values Value.VNull Value.VNull);
  Alcotest.(check bool) "p == NULL" false (Interp.equal_values p Value.VNull);
  Alcotest.(check bool) "binop !=" true
    (Interp.binop "!=" p q = Value.VInt 1);
  (* ordered comparison of pointers is a runtime error, not an arbitrary
     answer (the old code returned 1 for both p < q and q < p) *)
  List.iter
    (fun op ->
      List.iter
        (fun (a, b) ->
          match Interp.binop op a b with
          | v ->
              Alcotest.failf "%s on pointers answered %s" op
                (Value.describe v)
          | exception Value.Skil_runtime_error _ -> ())
        [ (p, q); (p, Value.VNull); (Value.VNull, q) ])
    [ "<"; ">"; "<="; ">=" ]

let add3_src =
  {|
    int add3(int a, int b, int c) { return a + b + c; }
    int main() { return 0; }
  |}

let engines_of src =
  let program = Parser.parse src in
  let tyenv = Typecheck.check program in
  let st = Interp.make ~tyenv program in
  let compiled = Compile.program ~tyenv program in
  (st, compiled)

let test_over_application () =
  let st, compiled = engines_of add3_src in
  let f = Value.VFun { Value.fv_target = `User "add3"; fv_applied = [] } in
  let via_interp =
    Interp.apply st (Interp.apply st f [ Value.VInt 1 ])
      [ Value.VInt 2; Value.VInt 3 ]
  in
  let via_compiled =
    Compile.apply compiled st
      (Compile.apply compiled st f [ Value.VInt 1 ])
      [ Value.VInt 2; Value.VInt 3 ]
  in
  Alcotest.(check bool) "interp" true (via_interp = Value.VInt 6);
  Alcotest.(check bool) "compiled" true (via_compiled = Value.VInt 6);
  (* surplus arguments past a non-function result are an error in both *)
  List.iter
    (fun apply ->
      match apply f [ Value.VInt 1; Value.VInt 2; Value.VInt 3;
                      Value.VInt 4 ] with
      | v -> Alcotest.failf "over-application answered %s" (Value.describe v)
      | exception Value.Skil_runtime_error _ -> ())
    [ Interp.apply st; Compile.apply compiled st ]

let test_split_at () =
  Alcotest.(check (pair (list int) (list int)))
    "middle" ([ 1; 2 ], [ 3; 4 ]) (Interp.split_at 2 [ 1; 2; 3; 4 ]);
  Alcotest.(check (pair (list int) (list int)))
    "all" ([ 1; 2 ], []) (Interp.split_at 5 [ 1; 2 ]);
  Alcotest.(check (pair (list int) (list int)))
    "none" ([], [ 1 ]) (Interp.split_at 0 [ 1 ])

let suite =
  [
    ( "engines",
      [
        Alcotest.test_case "corpus both engines" `Quick
          test_corpus_equivalence;
        Alcotest.test_case "corpus exhaustive" `Quick
          test_corpus_is_exhaustive;
        Alcotest.test_case "cost profiles both engines" `Quick
          test_cost_profiles_equivalence;
        Alcotest.test_case "gen_mult with user operators falls back" `Quick
          test_user_op_gen_mult_falls_back;
        Alcotest.test_case "pointer comparison" `Quick
          test_pointer_comparison_semantics;
        Alcotest.test_case "over-application" `Quick test_over_application;
        Alcotest.test_case "split_at" `Quick test_split_at;
      ] );
  ]
