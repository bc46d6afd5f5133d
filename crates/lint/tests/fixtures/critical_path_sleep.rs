//! camelot-lint fixture: the `critical-path-sleep` rule. Never compiled.
#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use std::thread::sleep; //~ critical-path-sleep
use std::time::Duration;

fn poll_for_work(ready: &dyn Fn() -> bool) {
    while !ready() {
        std::thread::sleep(Duration::from_millis(2)); //~ critical-path-sleep
    }
    thread::sleep(Duration::ZERO); //~ critical-path-sleep
    // Exempt shapes: waiting that is not `thread::sleep` (a read with a
    // timeout blocks on the socket, not on a clock), and names that only
    // mention sleeping.
    let sleep_ms = 5;
    let _budget = Duration::from_millis(sleep_ms);
    // thread::sleep in a comment, and "thread::sleep" in a string.
    let _text = "thread::sleep";
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_sleep_to_play_a_slow_peer() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
