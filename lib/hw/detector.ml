type violation = {
  checker : int;
  setter : int;
  false_positive_prone : bool;
}

type caps = {
  scheme : string;
  scalable : bool;
  false_positives : bool;
  detects_store_store : bool;
  max_registers : int option;
}

type t = {
  name : string;
  caps : caps;
  reset : unit -> unit;
  on_mem : Ir.Instr.t -> Access.t -> (unit, violation) result;
  on_rotate : int -> unit;
  on_amov : src:int -> dst:int -> unit;
  checks_performed : unit -> int;
}

let wrap ?name ?(reset = fun () -> ()) ?on_mem (d : t) =
  let base_on_mem = d.on_mem in
  {
    d with
    name = (match name with Some n -> n | None -> d.name);
    reset =
      (fun () ->
        d.reset ();
        reset ());
    on_mem =
      (match on_mem with None -> d.on_mem | Some f -> f base_on_mem);
  }

let pp_violation ppf v =
  Format.fprintf ppf "alias violation: instr %d checked instr %d%s" v.checker
    v.setter
    (if v.false_positive_prone then " (possibly spurious)" else "")
