(* Host-speed calibration.

   On a small shared host the same code runs up to 1.5x slower in spells
   that last from seconds to minutes, and process CPU time slows with it,
   so neither wall nor CPU time of one run is comparable with another's.
   The benchmark therefore runs a fixed reference kernel, written here and
   independent of the library, before each timed operation, and reports
   the operation's time scaled by how fast the kernel ran around it:

     reported = measured * nominal / local kernel time

   where the local kernel time is the median of the last few kernel
   samples.  A change to the library moves the measured time and leaves
   the kernel alone, so it shows in full; a slow spell of the host moves
   both and cancels. *)

let now = Unix.gettimeofday

(* A 4 MiB table read at random: the kernel's cache and memory traffic. *)
let table_bits = 19
let table = Array.init (1 lsl table_bits) (fun i -> (i * 2654435761) land 0xffff)
let scratch = Array.make 4096 0

(* Integer arithmetic, a sort, branchy compares and random memory reads;
   about a millisecond.  It allocates nothing, so its time does not
   depend on the size of the heap the measured code leaves behind. *)
let kernel () =
  let st = ref 0x2545f491 in
  let next () =
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    !st
  in
  for i = 0 to Array.length scratch - 1 do
    scratch.(i) <- next ()
  done;
  Array.sort Int.compare scratch;
  let acc = ref scratch.(0) in
  for _ = 1 to 40_000 do
    acc := !acc + table.(next () land ((1 lsl table_bits) - 1))
  done;
  ignore (Sys.opaque_identity !acc)

(* The kernel time reported times are scaled to. *)
let nominal = 1.0e-3

(* (end time, seconds) of every kernel sample, newest first *)
let samples : (float * float) list ref = ref []

(* seconds spent in kernel samples so far *)
let spent = ref 0.

let sample () =
  let t0 = now () in
  kernel ();
  let t1 = now () in
  samples := (t1, t1 -. t0) :: !samples;
  spent := !spent +. (t1 -. t0)

(* Host speed changes over tenths of seconds and longer, so a kernel
   sample at most every [interval] seconds tracks it while keeping the
   kernel a small share of a run. *)
let interval = 0.05
let window = 5

let due () = match !samples with (t, _) :: _ -> now () -. t >= interval | [] -> true

(* Between the tasks of the library's domain pool, a kernel sample when
   one is due: an operation longer than [interval] (a cold sweep, a fault
   campaign) gets samples from inside it. *)
let pool_sampler =
  { Tensorlib.Par.wrap = (fun ~label:_ ~domain:_ ~index:_ f -> if due () then sample (); f ()) }

(* Scaled length of the span [t0, t1] that held [inside] seconds of
   kernel samples: the rest, times nominal over the median kernel time of
   the samples taken in the span, or of the [window] samples nearest its
   middle when it holds fewer. *)
let scale ?(inside = 0.) t0 t1 =
  let mid = (t0 +. t1) /. 2. in
  let recent = List.filteri (fun i _ -> i < 64) !samples in
  let within = List.filter (fun (t, _) -> t >= t0 && t <= t1) recent in
  let used =
    if List.length within >= window then within
    else
      List.sort (fun (a, _) (b, _) -> Float.compare (Float.abs (a -. mid)) (Float.abs (b -. mid))) recent
      |> List.filteri (fun i _ -> i < window)
  in
  let d = t1 -. t0 -. inside in
  match used with [] -> d | l -> d *. nominal /. Stats.median (List.map snd l)

(* [f ()] between kernel samples, skipping a sample when one was taken in
   the last [interval]; its result and scaled seconds. *)
let time f =
  if due () then sample ();
  let k0 = !spent and t0 = now () in
  Tensorlib.Par.set_wrapper (Some pool_sampler);
  let v = Fun.protect ~finally:(fun () -> Tensorlib.Par.set_wrapper None) f in
  let t1 = now () in
  let inside = !spent -. k0 in
  if due () then sample ();
  (v, scale ~inside t0 t1)

let median_kernel_s () = Stats.median (List.map snd !samples)
