//! The network substrate: hosts, messages, DNS, services, and the
//! perturbation points Table 6 lists for the network entity.
//!
//! The model is intentionally message-oriented rather than stream-oriented:
//! the paper's network faults (message authenticity, protocol-step
//! omission/addition/reordering, socket sharing, service denial, entity
//! trust) are all properties of *messages and peers*, not of byte streams.
//! Each inbound port carries a queue of [`Message`]s, each stamped with a
//! claimed and an actual origin; perturbation helpers mutate the queues and
//! the service table in exactly the ways Table 6 describes.

use shim_sync::sync::Arc;
use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::data::Data;
use crate::error::SysResult;
use crate::syserr;

/// A message as delivered to an application.
///
/// Its origins and its payload's text are shared, so copying a queue to
/// write it (or delivering a message) copies no text.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Message {
    /// Origin the message claims (what naive code trusts).
    pub claimed_from: Arc<str>,
    /// Where it actually came from (ground truth for the oracle).
    pub actual_from: Arc<str>,
    /// Payload.
    pub data: Data,
}

impl Message {
    /// A genuine message whose claimed and actual origins agree.
    pub fn genuine(from: impl Into<Arc<str>>, data: impl Into<Data>) -> Self {
        let from = from.into();
        Message {
            claimed_from: Arc::clone(&from),
            actual_from: from,
            data: data.into(),
        }
    }

    /// True when the claimed origin matches the actual origin.
    pub fn authentic(&self) -> bool {
        self.claimed_from == self.actual_from
    }
}

/// A network service another party offers (or this application listens on).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Service {
    /// Host offering the service.
    pub host: Arc<str>,
    /// Whether the service currently answers (availability perturbation).
    pub available: bool,
    /// Whether the peer entity is trusted (entity-trust perturbation).
    pub trusted: bool,
}

/// The DNS, service, inbox and IPC tables of a [`Network`], grouped so that
/// world snapshots can share them copy-on-write. Every text in them is
/// shared, so the copy a write makes copies no text.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
struct NetTables {
    /// DNS table: name → address text.
    dns: BTreeMap<Arc<str>, Arc<str>>,
    /// Services keyed by (host, port).
    services: BTreeMap<(Arc<str>, u16), Service>,
    /// Inbound message queues keyed by local port.
    inboxes: BTreeMap<u16, VecDeque<Message>>,
    /// IPC message queues keyed by channel name (the "process" environment
    /// entity of Table 6).
    ipc: BTreeMap<Arc<str>, VecDeque<Message>>,
    /// Trust state of IPC peers keyed by channel.
    ipc_trusted: BTreeMap<Arc<str>, bool>,
    /// IPC channels whose peer service is down.
    ipc_down: BTreeMap<Arc<str>, bool>,
    /// Ports whose socket is shared with another (attacker) process.
    shared_sockets: BTreeMap<u16, Arc<str>>,
}

impl NetTables {
    /// The service `host` offers on `port`, found without building a key.
    fn service(&self, host: &str, port: u16) -> Option<&Service> {
        self.services
            .iter()
            .find(|((h, p), _)| &**h == host && *p == port)
            .map(|(_, s)| s)
    }

    /// As [`NetTables::service`], mutably.
    fn service_mut(&mut self, host: &str, port: u16) -> Option<&mut Service> {
        self.services
            .iter_mut()
            .find(|((h, p), _)| &**h == host && *p == port)
            .map(|(_, s)| s)
    }
}

/// The simulated network attached to one sandbox world.
///
/// `clone` is a copy-on-write snapshot: the tables are shared until either
/// copy mutates them. Use [`Network::deep_clone`] for an eagerly
/// materialized copy.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Network {
    /// DNS, service, inbox and IPC tables, shared between snapshots.
    tables: Arc<NetTables>,
    /// Whether the resolver answers at all (service-availability fault on DNS).
    pub dns_available: bool,
    /// Record of everything sent, for assertions and the oracle.
    pub sent: Vec<(String, u16, Data)>,
}

impl Network {
    /// An empty network with a working resolver.
    pub fn new() -> Self {
        Network {
            dns_available: true,
            ..Default::default()
        }
    }

    /// The tables, unsharing them from any sibling snapshot first.
    fn tables_mut(&mut self) -> &mut NetTables {
        Arc::make_mut(&mut self.tables)
    }

    /// A fully materialized copy sharing no storage with `self`.
    pub fn deep_clone(&self) -> Network {
        Network {
            tables: Arc::new((*self.tables).clone()),
            dns_available: self.dns_available,
            sent: self.sent.clone(),
        }
    }

    /// Whether the tables are physically shared with `other` (copy-on-write
    /// introspection).
    pub fn shares_storage_with(&self, other: &Network) -> bool {
        Arc::ptr_eq(&self.tables, &other.tables)
    }

    // ---------------- DNS ----------------

    /// Installs a DNS entry.
    pub fn add_dns(&mut self, name: impl Into<Arc<str>>, addr: impl Into<Arc<str>>) {
        self.tables_mut().dns.insert(name.into(), addr.into());
    }

    /// Resolves a name; the answer's text is shared with the table.
    ///
    /// # Errors
    ///
    /// `EHOSTUNREACH` when the resolver is down or the name is unknown.
    pub fn resolve(&self, name: &str) -> SysResult<Arc<str>> {
        if !self.dns_available {
            return Err(syserr!(Ehostunreach, "resolver unavailable for {name}"));
        }
        self.tables
            .dns
            .get(name)
            .cloned()
            .ok_or_else(|| syserr!(Ehostunreach, "unknown host {name}"))
    }

    // ---------------- services ----------------

    /// Declares a service.
    pub fn add_service(&mut self, host: impl Into<Arc<str>>, port: u16, trusted: bool) {
        let host = host.into();
        self.tables_mut().services.insert(
            (Arc::clone(&host), port),
            Service {
                host,
                available: true,
                trusted,
            },
        );
    }

    /// Looks up a service.
    pub fn service(&self, host: &str, port: u16) -> Option<&Service> {
        self.tables.service(host, port)
    }

    /// Connects to a service.
    ///
    /// # Errors
    ///
    /// `ECONNREFUSED` when the service does not exist or is down.
    pub fn connect(&self, host: &str, port: u16) -> SysResult<&Service> {
        match self.tables.service(host, port) {
            Some(s) if s.available => Ok(s),
            Some(_) => Err(syserr!(Econnrefused, "{host}:{port} is down")),
            None => Err(syserr!(Econnrefused, "{host}:{port}")),
        }
    }

    /// Marks a service unavailable (service-availability perturbation).
    pub fn deny_service(&mut self, host: &str, port: u16) {
        if let Some(s) = self.tables_mut().service_mut(host, port) {
            s.available = false;
        }
    }

    /// Marks a peer entity untrusted (entity-trust perturbation).
    pub fn distrust_entity(&mut self, host: &str, port: u16) {
        if let Some(s) = self.tables_mut().service_mut(host, port) {
            s.trusted = false;
        }
    }

    // ---------------- inbound messages ----------------

    /// Queues an inbound message on a port.
    pub fn push_message(&mut self, port: u16, msg: Message) {
        self.tables_mut().inboxes.entry(port).or_default().push_back(msg);
    }

    /// Pops the next inbound message on a port, if any.
    pub fn pop_message(&mut self, port: u16) -> Option<Message> {
        self.tables_mut().inboxes.get_mut(&port).and_then(VecDeque::pop_front)
    }

    /// Number of queued messages on a port.
    pub fn queue_len(&self, port: u16) -> usize {
        self.tables.inboxes.get(&port).map_or(0, VecDeque::len)
    }

    /// Authenticity perturbation: the next message on `port` keeps its
    /// claimed origin but actually comes from `actual`.
    pub fn spoof_next(&mut self, port: u16, actual: impl Into<Arc<str>>) {
        if let Some(q) = self.tables_mut().inboxes.get_mut(&port) {
            if let Some(m) = q.front_mut() {
                m.actual_from = actual.into();
            }
        }
    }

    /// Protocol perturbation: drops the `idx`-th queued step.
    pub fn omit_step(&mut self, port: u16, idx: usize) {
        if let Some(q) = self.tables_mut().inboxes.get_mut(&port) {
            if idx < q.len() {
                q.remove(idx);
            }
        }
    }

    /// Protocol perturbation: duplicates the `idx`-th queued step
    /// immediately after itself (an "extra step").
    pub fn duplicate_step(&mut self, port: u16, idx: usize) {
        if let Some(q) = self.tables_mut().inboxes.get_mut(&port) {
            if let Some(m) = q.get(idx).cloned() {
                q.insert(idx + 1, m);
            }
        }
    }

    /// Protocol perturbation: swaps two queued steps (reordering).
    pub fn swap_steps(&mut self, port: u16, a: usize, b: usize) {
        if let Some(q) = self.tables_mut().inboxes.get_mut(&port) {
            if a < q.len() && b < q.len() {
                q.swap(a, b);
            }
        }
    }

    /// Socket-sharing perturbation: another process now shares the socket.
    pub fn share_socket(&mut self, port: u16, with: impl Into<Arc<str>>) {
        self.tables_mut().shared_sockets.insert(port, with.into());
    }

    /// Who, if anyone, shares the socket on `port`.
    pub fn socket_shared_with(&self, port: u16) -> Option<&str> {
        self.tables.shared_sockets.get(&port).map(|with| &**with)
    }

    // ---------------- outbound ----------------

    /// Records an outbound message.
    pub fn send(&mut self, host: &str, port: u16, data: Data) {
        self.sent.push((host.to_string(), port, data));
    }

    // ---------------- IPC (process entity) ----------------

    /// Queues an IPC message on a named channel.
    pub fn push_ipc(&mut self, channel: impl Into<Arc<str>>, msg: Message) {
        self.tables_mut().ipc.entry(channel.into()).or_default().push_back(msg);
    }

    /// Pops the next IPC message.
    ///
    /// # Errors
    ///
    /// `ECONNREFUSED` when the peer service was denied; `ENOMSG` when the
    /// queue is empty.
    pub fn pop_ipc(&mut self, channel: &str) -> SysResult<Message> {
        if self.tables.ipc_down.get(channel).copied().unwrap_or(false) {
            return Err(syserr!(Econnrefused, "ipc peer on {channel} is down"));
        }
        self.tables_mut()
            .ipc
            .get_mut(channel)
            .and_then(VecDeque::pop_front)
            .ok_or_else(|| syserr!(Enomsg, "ipc channel {channel} empty"))
    }

    /// Authenticity perturbation on an IPC channel.
    pub fn spoof_next_ipc(&mut self, channel: &str, actual: impl Into<Arc<str>>) {
        if let Some(q) = self.tables_mut().ipc.get_mut(channel) {
            if let Some(m) = q.front_mut() {
                m.actual_from = actual.into();
            }
        }
    }

    /// Trust perturbation on an IPC peer.
    pub fn distrust_ipc(&mut self, channel: &str) {
        self.tables_mut().ipc_trusted.insert(Arc::from(channel), false);
    }

    /// Whether an IPC peer is trusted (default true).
    pub fn ipc_trusted(&self, channel: &str) -> bool {
        self.tables.ipc_trusted.get(channel).copied().unwrap_or(true)
    }

    /// Availability perturbation on an IPC peer.
    pub fn deny_ipc(&mut self, channel: &str) {
        self.tables_mut().ipc_down.insert(Arc::from(channel), true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dns_resolution_and_denial() {
        let mut n = Network::new();
        n.add_dns("trusted.edu", "10.0.0.5");
        assert_eq!(&*n.resolve("trusted.edu").unwrap(), "10.0.0.5");
        n.dns_available = false;
        assert!(n.resolve("trusted.edu").is_err());
        n.dns_available = true;
        assert!(n.resolve("unknown.example").is_err());
    }

    #[test]
    fn connect_and_deny() {
        let mut n = Network::new();
        n.add_service("server", 79, true);
        assert!(n.connect("server", 79).is_ok());
        n.deny_service("server", 79);
        assert!(n.connect("server", 79).is_err());
    }

    #[test]
    fn spoof_changes_actual_not_claimed() {
        let mut n = Network::new();
        n.push_message(79, Message::genuine("ta-host", "hello"));
        n.spoof_next(79, "evil-host");
        let m = n.pop_message(79).unwrap();
        assert_eq!(&*m.claimed_from, "ta-host");
        assert_eq!(&*m.actual_from, "evil-host");
        assert!(!m.authentic());
    }

    #[test]
    fn protocol_step_mutations() {
        let mut n = Network::new();
        for s in ["HELO", "AUTH", "CMD"] {
            n.push_message(99, Message::genuine("peer", s));
        }
        n.omit_step(99, 1); // drop AUTH
        assert_eq!(n.queue_len(99), 2);
        assert_eq!(n.pop_message(99).unwrap().data.text(), "HELO");
        assert_eq!(n.pop_message(99).unwrap().data.text(), "CMD");

        for s in ["HELO", "AUTH", "CMD"] {
            n.push_message(98, Message::genuine("peer", s));
        }
        n.swap_steps(98, 1, 2);
        assert_eq!(n.pop_message(98).unwrap().data.text(), "HELO");
        assert_eq!(n.pop_message(98).unwrap().data.text(), "CMD");

        for s in ["A", "B"] {
            n.push_message(97, Message::genuine("peer", s));
        }
        n.duplicate_step(97, 0);
        assert_eq!(n.queue_len(97), 3);
    }

    #[test]
    fn socket_sharing() {
        let mut n = Network::new();
        assert!(n.socket_shared_with(79).is_none());
        n.share_socket(79, "attacker-proc");
        assert_eq!(n.socket_shared_with(79), Some("attacker-proc"));
    }

    #[test]
    fn ipc_queue_trust_and_denial() {
        let mut n = Network::new();
        n.push_ipc("spooler", Message::genuine("printerd", "job 1"));
        assert!(n.ipc_trusted("spooler"));
        n.distrust_ipc("spooler");
        assert!(!n.ipc_trusted("spooler"));
        let m = n.pop_ipc("spooler").unwrap();
        assert_eq!(m.data.text(), "job 1");
        assert_eq!(n.pop_ipc("spooler").unwrap_err().errno, crate::error::Errno::Enomsg);
        n.deny_ipc("spooler");
        assert_eq!(
            n.pop_ipc("spooler").unwrap_err().errno,
            crate::error::Errno::Econnrefused
        );
    }

    #[test]
    fn sent_messages_are_recorded() {
        let mut n = Network::new();
        n.send("client", 1023, Data::from("reply"));
        assert_eq!(n.sent.len(), 1);
        assert_eq!(n.sent[0].0, "client");
    }
}
