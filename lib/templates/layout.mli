(** The schedule model: everything about an accelerator that follows from
    its schedule, computed without elaborating hardware.

    [build design ~rows ~cols] runs the scheduling pass once and produces
    every schedule-table image ({!field-l_mems}), the data-memory layout,
    the collector cell allocation and output-bank map, the
    counter-increment tallies, the schedule-dependent wiring choices
    ({!field-l_feeds}, {!field-l_collect}) and a canonical {e structure}
    string capturing the netlist shape independent of table contents.

    Two consumers read one layout: {!Accel.generate} wires hardware from
    it (ROMs or envelope-sized descriptor rams take their images from
    here), and {!Tl_compile} strips it to a loadable {!program}.  Two
    designs with equal structure strings elaborate isomorphic netlists
    that differ only in table images and memory sizes — exactly the
    condition under which a program for one runs on a programmable
    netlist generated from the other. *)

exception Unsupported of string
(** Bound to {!Schedule.Unsupported}: one exception under two names, so a
    handler for either catches both.  The design has no netlist: missing
    template, footprint overflow, drain-chain/span conflict, collector
    overflow or write conflict. *)

type domain = Cycle | Pass
(** Index domain of a schedule table: cycle-indexed tables have natural
    length [l_total]; pass-indexed ones [l_passes + 1]. *)

type envelope = {
  env_cycles : int;  (** max schedule length (cycle-table capacity) *)
  env_passes : int;  (** max pass count (pass tables hold [env_passes+1]) *)
  env_elems : int;   (** max elements per input data memory *)
  env_bank : int;    (** max cells per collector bank *)
}
(** Capacity envelope of a programmable netlist: every schedule memory is
    sized by these bounds (and addressed at envelope-derived widths), so
    any schedule fitting the envelope loads without re-elaboration. *)

type mem = { m_name : string; m_domain : domain; m_image : int array }

type input = {
  in_tensor : string;  (** request-side tensor name (environment key) *)
  in_mem : string;     (** target-side data-memory key *)
  in_elems : int;
  in_shape : int array;
}

type pos = Geometry.pos

type bank = {
  b_name : string;
  b_cells : int;  (** natural size: the declared capacity, at least 1 *)
  b_we : mem;     (** cycle → accumulate strobe *)
  b_addr : mem;   (** cycle → cell *)
}
(** One accumulate-in-place collector bank. *)

type feed =
  | Bus of { table : mem; pes : pos list }
      (** [data[table[cycle]]] drives every PE in [pes]: one PE (unicast),
          one line (multicast) or the whole array (broadcast) *)
  | Held of { table : mem; at : pos; pes : pos list }
      (** [data[table[pass]]], loaded at every stage load into a register
          named after [at] and shared by [pes]: one PE (stationary) or one
          line (multicast-stationary) *)

type source = Own of mem | Line of pos
(** Where a chain entry's value comes from: the PE's own feed table, or
    the shared feed of the multicast line represented by the position. *)

type link = { pe : pos; inject : (mem * source) option }
(** One systolic-chain PE: [None] takes every value from the neighbour
    behind it; [Some (bitmap, source)] injects on the bitmap's cycles. *)

type wiring =
  | Feeds of feed list
  | Chains of { dp : int array; dt : int; links : link list;
                line_feeds : (pos * mem) list }
      (** systolic (empty [line_feeds]) or systolic-multicast *)

type psum = Fresh | Chain | Mux of mem
(** Partial-sum input of a systolic-output PE: constant zero, the
    neighbour, or zero on the bitmap's injection cycles. *)

type collect =
  | Drain of { fp_rows : int; columns : (int * bank) list }
      (** stationary: a shadow drain chain over rows [0..fp_rows-1] of
          each listed column *)
  | Sys_out of { dp : int array; dt : int; psums : (pos * psum) list;
                 exits : (pos * bank) list }
  | Trees of { stage_acc : bool; lines : (pos * pos list * bank) list }
      (** one gated reduction tree per (representative, members) group —
          singletons for unicast — accumulated across the stage when
          [stage_acc] (multicast-stationary) *)

type t = {
  l_design : Tl_stt.Design.t;
  l_rows : int;
  l_cols : int;
  l_sched : Schedule.t;  (** the geometry; [build] materialises the events *)
  l_total : int;   (** controller cycle count *)
  l_passes : int;
  l_events : int;  (** MAC events (= statement domain size) *)
  l_structure : string;
  l_mems : mem list;  (** every schedule table, in elaboration order *)
  l_inputs : input list;
  l_banks : (string * int * int) list;
      (** (bank name, declared capacity, cells used) *)
  l_out : (int list * (string * int)) list;
      (** output element index → (bank name, bank address), sorted *)
  l_out_shape : int array;
  l_done : mem;  (** controller stream: the last cycle *)
  l_tick : mem;  (** controller stream: the last cycle of each pass *)
  l_feeds : (string * wiring) list;  (** per input tensor, design order *)
  l_valid : (pos * mem) list;  (** per active PE: its MAC cycles *)
  l_collect : collect;
  l_read_ctrs : (string * mem) list;
      (** useful-read counter port per read tensor (sorted) → increments *)
  l_link_ctrs : (string * mem) list;
      (** systolic-hop and multicast-bus link counters → increments *)
}

type program = {
  p_name : string;
  p_structure : string;
  p_total : int;
  p_passes : int;
  p_events : int;
  p_images : (string * (domain * int array)) list;
  p_inputs : input list;
  p_out : (int list * (string * int)) list;
  p_out_shape : int array;
}
(** A loadable program: the descriptor-memory images plus data-memory
    layout, detached from the design that produced it (serialised by
    {!Tl_compile.program_to_json}, loaded by {!Accel.load_program}). *)

val pos_name : string -> pos -> string
(** [pos_name prefix (r, c)] is ["prefix_r_c"]. *)

val schedule_size : Tl_stt.Design.t -> rows:int -> cols:int -> int * int
(** [(l_total, l_passes)] of [build design ~rows ~cols], read off the
    schedule's geometry ({!Schedule.v}) in O(depth): no events are built,
    so the cost does not grow with the extents.
    @raise Unsupported when the schedule footprint does not fit the
    array, as {!build} would, or when the total does not fit in an
    int. *)

val build : ?rename:(string -> string) -> Tl_stt.Design.t ->
  rows:int -> cols:int -> t
(** The layout of [design] on a [rows]×[cols] array.  [rename] maps the
    design's tensor names to the target netlist's (positional renaming
    when compiling a request whose tensors are named differently); memory
    names, counter names and [in_mem] use renamed names, while
    [in_tensor] and the keys of [l_feeds] keep the request-side names.
    The schedule's events are materialised once ({!Schedule.by_pe}) and
    dropped with the build.
    @raise Unsupported when the design has no netlist. *)

val envelope : headroom:int -> t -> envelope
(** [headroom] times the layout's own figures: its schedule length and
    pass count, its largest input and its largest bank. *)

type overflow = { what : string; need : int; capacity : int }

val exceeds : envelope -> total:int -> passes:int ->
  elems:(string * int) list -> banks:(string * int) list -> overflow option
(** The first figure over the envelope, checked in order: schedule
    cycles, schedule passes, each tensor's elements, each bank's declared
    cells. *)

val overflow : envelope -> t -> overflow option
(** {!exceeds} on the layout's own figures: [None] iff the layout loads
    into a netlist generated with this envelope. *)

val overflow_to_string : overflow -> string

val structure_digest : string -> string
(** Stable 32-hex digest of a structure string (for serialisation). *)

val out_defect : program -> string option
(** The first way [p_out] does not fit [p_out_shape], if any: no extents,
    an extent below 1, more elements than {!Tl_ir.Dense.max_elements}, or
    an index of another rank or outside an extent.
    {!Tl_compile.program_of_json} and {!Accel.load_program} reject such a
    program before anything runs. *)

val to_program : ?name:string -> t -> program
(** Strip a layout down to its loadable program (default name: the
    design's dataflow name). *)

val domain_string : domain -> string
