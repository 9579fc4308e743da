(* Host speed, measured with plain OCaml work that shares no code with the
   program under test.

   The benchmark host is shared: its speed drifts by up to a third within
   a minute as other tenants contend for caches, memory and cores, and a
   whole run drifts with it (a job's process CPU time drifts as much as
   its wall time, so this is not stolen time).  Timing this fixed piece of
   work right before a job, or before a slice of the service loop, gives
   the host's speed at that moment, and [scale] rescales what was measured
   to what it would have been on a host where the work takes
   [reference_s].  A change to the program cannot move the calibration,
   so it moves a rescaled time exactly as much as the wall time. *)

(* The calibration's time on the benchmark host (2-vCPU KVM guest, Intel
   Xeon) in a quiet period. *)
let reference_s = 0.005

(* Fill a hash table and map and fold a list of boxed floats: work that
   allocates, promotes and chases pointers, as the simulator does.  A plain
   integer loop tracked the simulator's drift far worse. *)
let work () =
  let h = Hashtbl.create 16 in
  for i = 1 to 20_000 do
    Hashtbl.replace h (i * 7919 land 0xffff) (float_of_int i)
  done;
  let l = List.init 20_000 float_of_int in
  let s = List.fold_left ( +. ) 0. (List.map (fun x -> x *. 2.) l) in
  ignore (Sys.opaque_identity (s, h))

(* Seconds the calibration work takes now. *)
let time () =
  let t0 = Span.now () in
  work ();
  Span.now () -. t0

(* A time measured when the calibration took [calib] seconds, rescaled to
   the host speed at which it takes [reference_s]. *)
let scale ~calib x = x *. reference_s /. calib
