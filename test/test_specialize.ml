(* Property: payload specialisation is unobservable.  Random monomorphic
   Skil programs — an int or float array initialised, mapped with a
   partially-applied element function, folded and printed — must behave
   bit-identically under the reference interpreter, the compiled engine
   with payload specialisation and the compiled engine with --no-specialize:
   same printed output per processor, same return values, same simulated
   makespan and same structured trace. *)

let qt ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:(fun s -> s) gen prop)

open QCheck2.Gen

type ty = I | F

(* Literals: small ints, quarter-step floats.  No division or modulo so
   every generated program is total; negative literals are parenthesised
   to survive positions like "a - -3". *)
let lit = function
  | I -> int_range (-9) 9 >|= fun n -> Printf.sprintf "(%d)" n
  | F ->
      int_range (-40) 40 >|= fun n ->
      Printf.sprintf "(%.2f)" (float_of_int n /. 4.0)

(* Depth-bounded expression over the given atoms, arithmetic and the
   min/max builtins (the specialiser has dedicated paths for both). *)
let rec expr ty depth atoms =
  if depth = 0 then oneof [ oneofl atoms; lit ty ]
  else
    frequency
      [
        (2, oneofl atoms);
        (1, lit ty);
        ( 3,
          oneofl [ "+"; "-"; "*" ] >>= fun op ->
          expr ty (depth - 1) atoms >>= fun a ->
          expr ty (depth - 1) atoms >|= fun b ->
          Printf.sprintf "(%s %s %s)" a op b );
        ( 2,
          oneofl [ "min"; "max" ] >>= fun f ->
          expr ty (depth - 1) atoms >>= fun a ->
          expr ty (depth - 1) atoms >|= fun b ->
          Printf.sprintf "%s(%s, %s)" f a b );
      ]

let gen_program =
  oneofl [ I; F ] >>= fun ty ->
  int_range 1 2 >>= fun dim ->
  int_range 2 6 >>= fun n0 ->
  int_range 2 5 >>= fun n1 ->
  let tname = match ty with I -> "int" | F -> "float" in
  let ix d = match ty with
    | I -> Printf.sprintf "ix[%d]" d
    | F -> Printf.sprintf "itof(ix[%d])" d
  in
  let ix_atoms = if dim = 2 then [ ix 0; ix 1 ] else [ ix 0 ] in
  expr ty 2 ix_atoms >>= fun init_e ->
  expr ty 2 ([ "c"; "elem" ] @ ix_atoms) >>= fun map_e ->
  expr ty 1 [ "elem" ] >>= fun conv_e ->
  oneofl [ "a + b"; "min(a, b)"; "max(a, b)" ] >>= fun merge_e ->
  lit ty >|= fun cval ->
  let size =
    if dim = 2 then Printf.sprintf "{%d, %d}" n0 n1
    else Printf.sprintf "{%d}" n0
  in
  let zeros = if dim = 2 then "{0, 0}" else "{0}" in
  let negs = if dim = 2 then "{-1, -1}" else "{-1}" in
  Printf.sprintf
    {|
%s init(Index ix) { return %s; }
%s f(%s c, %s elem, Index ix) { return %s; }
%s conv(%s elem, Index ix) { return %s; }
%s merge(%s a, %s b) { return %s; }
void main() {
  array<%s> a;
  array<%s> b;
  a = array_create(%d, %s, %s, %s, init, DISTR_DEFAULT);
  b = array_create(%d, %s, %s, %s, init, DISTR_DEFAULT);
  array_map(f(%s), a, b);
  %s r = array_fold(conv, merge, b);
  print_%s(r);
  array_destroy(a);
  array_destroy(b);
}
|}
    tname init_e tname tname tname map_e tname tname conv_e tname tname
    tname merge_e tname tname dim size zeros negs dim size zeros negs cval
    tname tname

let nprocs = 4

let observe src ~engine ~specialize =
  let r =
    Spmd.run_source ~engine ~specialize ~trace:true
      ~topology:(Topology.mesh ~width:2 ~height:2)
      src ~entry:"main" ~args:[]
  in
  ( Array.map (fun o -> o.Spmd.printed) r.Machine.values,
    Array.map (fun o -> Value.describe o.Spmd.value) r.Machine.values,
    r.Machine.time,
    Profile.chrome_json r.Machine.trace ~nprocs )

let prop_specialisation_unobservable src =
  let a = observe src ~engine:`Ast ~specialize:true in
  let s = observe src ~engine:`Compiled ~specialize:true in
  let n = observe src ~engine:`Compiled ~specialize:false in
  a = s && a = n

(* Property: every monomorphic gen_mult block kernel equals
   Skeletons.generic_block over the same operators' scalar closures, bit
   for bit (floats compared by their IEEE bits), on blocks of side 1-12
   with a non-zero starting [c] and edge values in every operand: NaN,
   signed zeros and infinities for floats, int_max and the host's integer
   extremes for ints.  The operator pairs are enumerated, so a kernel added
   to Binop is covered without touching this test. *)

let ops = Binop.[ Add; Sub; Mul; Div; Mod; Min; Max ]

let int_max = max_int / 4 (* the Skil builtin int_max *)

let int_elem =
  frequency
    [
      (1, oneofl [ int_max; max_int; min_int; 0; 1; -1 ]);
      (4, int_range (-1000) 1000);
      (1, int);
    ]

let float_elem =
  frequency
    [
      ( 1,
        oneofl
          [ Float.nan; Float.neg Float.nan; 0.0; -0.0; Float.infinity;
            Float.neg_infinity; Float.max_float; Float.min_float ] );
      (4, float_range (-100.0) 100.0);
      (1, float);
    ]

(* side, a, b and the starting c of one block product *)
let gen_blocks elem =
  int_range 1 12 >>= fun bs ->
  let block = array_size (pure (bs * bs)) elem in
  triple block block block >|= fun (a, b, c) -> (bs, a, b, c)

let print_blocks show (bs, a, b, c) =
  let arr x = String.concat " " (Array.to_list (Array.map show x)) in
  Printf.sprintf "bs=%d\na=[%s]\nb=[%s]\nc=[%s]" bs (arr a) (arr b) (arr c)

(* For every (add, mul) with a kernel, [same] compares the kernel's [c]
   with the generic loop's, and [a]/[b] must come out untouched. *)
let kernels_match ~kernel ~scalar ~same (bs, a, b, c) =
  List.for_all
    (fun add ->
      List.for_all
        (fun mul ->
          match (kernel ~add ~mul, scalar add, scalar mul) with
          | None, _, _ -> true
          | Some _, None, _ | Some _, _, None ->
              QCheck2.Test.fail_report "kernel for an operator without a \
                                        scalar form"
          | Some k, Some fadd, Some fmul ->
              let a' = Array.copy a and b' = Array.copy b in
              let ck = Array.copy c and cg = Array.copy c in
              k ~bs a' b' ck;
              Skeletons.generic_block ~add:fadd ~mul:fmul ~bs a b cg;
              same ck cg && same a a' && same b b')
        ops)
    ops

let float_bits x = Array.map Int64.bits_of_float x

let prop_int_kernels =
  kernels_match ~kernel:Binop.int_block
    ~scalar:(fun op -> Some (Binop.int op))
    ~same:( = )

let prop_float_kernels =
  kernels_match ~kernel:Binop.float_block ~scalar:Binop.float
    ~same:(fun x y -> float_bits x = float_bits y)

let qk name gen print prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name ~print gen prop)

let suite =
  [
    ( "specialize",
      [
        qt "random monomorphic programs: ast = spec = no-spec" gen_program
          prop_specialisation_unobservable;
        qk "int block kernels = generic_block" (gen_blocks int_elem)
          (print_blocks string_of_int) prop_int_kernels;
        qk "float block kernels = generic_block, bit for bit"
          (gen_blocks float_elem) (print_blocks Printf.(sprintf "%h"))
          prop_float_kernels;
      ] );
  ]
