(** Per-tensor dataflow taxonomy (Table I).

    The reuse subspace of a tensor under a space-time transformation has
    dimension 0, 1 or 2 (or 3 when the tensor ignores every selected loop).
    Directions are given in space-time coordinates as [(dp, dt)] with [dp]
    the PE-array displacement (length 2 for a 2-D array) and [dt] the time
    displacement, normalised to a primitive integer vector with [dt >= 0]
    (and, when [dt = 0], first nonzero [dp] component positive). *)

type vector = { dp : int array; dt : int }
(** A primitive reuse direction in space-time. *)

type shape2d =
  | Broadcast
      (** Plane perpendicular to the t-axis: the element reaches every PE of
          the plane in the same cycle. *)
  | Multicast_stationary of { multicast : int array }
      (** t-axis lies in the plane: broadcast once along [multicast], then
          each copy stays inside its PE. *)
  | Systolic_multicast of { multicast : int array; systolic : vector }
      (** Plane intersects the t-axis: broadcast along [multicast], then the
          copies traverse PEs systolically along [systolic]. *)

type t =
  | Unicast        (** 0-D reuse: every use fetched independently. *)
  | Stationary of { dt : int }
      (** 1-D, [dp = 0]: element pinned in one PE across [dt]-spaced uses. *)
  | Systolic of vector
      (** 1-D, [dp <> 0, dt <> 0]: neighbour-to-neighbour pipelining. *)
  | Multicast of { dp : int array }
      (** 1-D, [dt = 0]: same-cycle fan-out along [dp]; for an *output*
          tensor this is realised as a reduction tree. *)
  | Reuse2d of shape2d  (** 2-D reuse plane. *)
  | Reuse_full
      (** The tensor ignores all selected loops (3-D reuse): broadcast once,
          stationary everywhere.  Rare; kept for totality. *)

val line_count : int -> int -> int array -> int
(** [line_count rows cols d] is the number of lines along direction [d]
    that cover a [rows × cols] PE array: its cells divided by the length
    of the longest segment of such a line inside it, rounded up.  The
    interconnect ([Topology]) and the cost inventory count chains, buses
    and trees with it. *)

val letter : t -> char
(** The paper's naming letters: S (systolic), T (stationary), M (multicast /
    reduction tree), U (unicast), B (2-D or full reuse). *)

val subspace_dim : t -> int
val pp : Format.formatter -> t -> unit
val pp_vector : Format.formatter -> vector -> unit
val to_string : t -> string

val render : Buffer.t -> t -> unit
(** Append exactly [to_string d] to the buffer without the intermediate
    string.  The fast path for signature canonicalisation. *)
