type t = {
  vliw : Vliw.Config.t option;
  fuel : int;
  unroll : int;
  tcache_policy : Tcache.Policy.t;
  tcache_capacity : int option;
  verify : Check.Verifier.mode;
  certify : bool;
  max_reopts : int;
  watchdog : int option;
}

let default =
  {
    vliw = None;
    fuel = 1_000_000_000;
    unroll = 1;
    tcache_policy = Tcache.Policy.Unbounded;
    tcache_capacity = None;
    verify = Check.Verifier.Off;
    certify = false;
    max_reopts = 10;
    watchdog = None;
  }
