-- The statement shapes the applications send to the database: every
-- distinct text sqldb.DB.Prepare received while the core, stack, auction,
-- bookstore and bench tests ran (all six architectures, both applications,
-- the EJB finders, population and replica sync). Whitespace is collapsed,
-- texts that differ only in their numbers are kept once, and texts over
-- 300 bytes are left out. One a line. How many rows the sharded tier's
-- split INSERT parts hold varies from run to run: this is two runs' union.
-- TestParseTraffic parses each, TestGrammarIsTraffic requires them to use
-- all of the grammar, FuzzParse seeds from them.
ALTER TABLE bids AUTO_INCREMENT NEXT 121
ALTER TABLE bids AUTO_INCREMENT OFFSET 1 STRIDE 2
ALTER TABLE bids AUTO_INCREMENT OFFSET 2 STRIDE 2 NEXT 216
ALTER TABLE buy_now AUTO_INCREMENT NEXT 1
ALTER TABLE buy_now AUTO_INCREMENT OFFSET 1 STRIDE 2
ALTER TABLE buy_now AUTO_INCREMENT OFFSET 2 STRIDE 2 NEXT 14
ALTER TABLE categories AUTO_INCREMENT NEXT 9
ALTER TABLE comments AUTO_INCREMENT NEXT 51
ALTER TABLE comments AUTO_INCREMENT OFFSET 1 STRIDE 2
ALTER TABLE comments AUTO_INCREMENT OFFSET 2 STRIDE 2 NEXT 72
ALTER TABLE credit_info AUTO_INCREMENT OFFSET 1 STRIDE 2
ALTER TABLE ids AUTO_INCREMENT NEXT 1
ALTER TABLE items AUTO_INCREMENT NEXT 41
ALTER TABLE items AUTO_INCREMENT OFFSET 1 STRIDE 2
ALTER TABLE items AUTO_INCREMENT OFFSET 2 STRIDE 2 NEXT 54
ALTER TABLE old_items AUTO_INCREMENT NEXT 1
ALTER TABLE order_line AUTO_INCREMENT OFFSET 1 STRIDE 2
ALTER TABLE orders AUTO_INCREMENT OFFSET 1 STRIDE 2
ALTER TABLE regions AUTO_INCREMENT NEXT 7
ALTER TABLE users AUTO_INCREMENT NEXT 121
CREATE INDEX idx_author_lname ON authors (lname)
CREATE INDEX idx_bid_item ON bids (item_id)
CREATE INDEX idx_bid_user ON bids (user_id)
CREATE INDEX idx_bn_buyer ON buy_now (buyer_id)
CREATE INDEX idx_ci_order ON credit_info (order_id)
CREATE INDEX idx_comment_to ON comments (to_user)
CREATE INDEX idx_item_author ON items (author_id)
CREATE INDEX idx_item_cat ON items (category_id)
CREATE INDEX idx_item_region ON items (region_id)
CREATE INDEX idx_item_seller ON items (seller_id)
CREATE INDEX idx_item_subject ON items (subject)
CREATE INDEX idx_ol_order ON order_line (order_id)
CREATE INDEX idx_old_cat ON old_items (category_id)
CREATE INDEX idx_order_customer ON orders (customer_id)
CREATE INDEX idx_user_region ON users (region_id)
CREATE TABLE address ( id INT PRIMARY KEY AUTO_INCREMENT, street VARCHAR(40), city VARCHAR(30), country_id INT)
CREATE TABLE authors ( id INT PRIMARY KEY AUTO_INCREMENT, fname VARCHAR(20) NOT NULL, lname VARCHAR(20) NOT NULL)
CREATE TABLE bids ( id INT PRIMARY KEY AUTO_INCREMENT, item_id INT NOT NULL, user_id INT NOT NULL, bid FLOAT, max_bid FLOAT, qty INT, bid_date INT)
CREATE TABLE buy_now ( id INT PRIMARY KEY AUTO_INCREMENT, item_id INT NOT NULL, buyer_id INT NOT NULL, qty INT, bn_date INT)
CREATE TABLE categories ( id INT PRIMARY KEY AUTO_INCREMENT, name VARCHAR(50) NOT NULL)
CREATE TABLE comments ( id INT PRIMARY KEY AUTO_INCREMENT, from_user INT NOT NULL, to_user INT NOT NULL, item_id INT, rating INT, comment TEXT)
CREATE TABLE countries ( id INT PRIMARY KEY AUTO_INCREMENT, name VARCHAR(50) NOT NULL)
CREATE TABLE credit_info ( id INT PRIMARY KEY AUTO_INCREMENT, order_id INT NOT NULL, cc_type VARCHAR(10), cc_number VARCHAR(16), cc_expiry INT, auth_id VARCHAR(16))
CREATE TABLE customers ( id INT PRIMARY KEY AUTO_INCREMENT, uname VARCHAR(20) NOT NULL, passwd VARCHAR(20), fname VARCHAR(20), lname VARCHAR(20), addr_id INT, phone VARCHAR(16), email VARCHAR(50), discount FLOAT)
CREATE TABLE ids ( name VARCHAR(20), value INT)
CREATE TABLE items ( id INT PRIMARY KEY AUTO_INCREMENT, name VARCHAR(60) NOT NULL, description TEXT, seller_id INT NOT NULL, category_id INT, region_id INT, init_price FLOAT, reserve FLOAT, buy_now FLOAT, nb_bids INT, max_bid FLOAT, start_date INT, end_date INT)
CREATE TABLE items ( id INT PRIMARY KEY AUTO_INCREMENT, title VARCHAR(60) NOT NULL, author_id INT NOT NULL, pub_date INT, subject VARCHAR(20), descr TEXT, cost FLOAT, stock INT, total_sold INT)
CREATE TABLE old_items ( id INT PRIMARY KEY, name VARCHAR(60), seller_id INT, category_id INT, region_id INT, max_bid FLOAT, end_date INT)
CREATE TABLE order_line ( id INT PRIMARY KEY AUTO_INCREMENT, order_id INT NOT NULL, item_id INT NOT NULL, qty INT, discount FLOAT)
CREATE TABLE orders ( id INT PRIMARY KEY AUTO_INCREMENT, customer_id INT NOT NULL, o_date INT, subtotal FLOAT, total FLOAT, status VARCHAR(16))
CREATE TABLE regions ( id INT PRIMARY KEY AUTO_INCREMENT, name VARCHAR(50) NOT NULL)
CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)
CREATE TABLE users ( id INT PRIMARY KEY AUTO_INCREMENT, fname VARCHAR(20), lname VARCHAR(20), nickname VARCHAR(24) NOT NULL, password VARCHAR(20), region_id INT, rating INT, balance FLOAT, creation INT)
CREATE UNIQUE INDEX idx_cust_uname ON customers (uname)
CREATE UNIQUE INDEX idx_user_nick ON users (nickname)
DELETE FROM bids
DELETE FROM buy_now
DELETE FROM categories
DELETE FROM comments
DELETE FROM ids
DELETE FROM items
DELETE FROM old_items
DELETE FROM regions
DELETE FROM users
INSERT INTO address (street, city, country_id) VALUES (?, ?, ?)
INSERT INTO address (street, city, country_id) VALUES (?, ?, ?), (?, ?, ?), (?, ?, ?), (?, ?, ?), (?, ?, ?), (?, ?, ?), (?, ?, ?), (?, ?, ?)
INSERT INTO authors (fname, lname) VALUES (?, ?), (?, ?), (?, ?), (?, ?), (?, ?), (?, ?), (?, ?), (?, ?), (?, ?), (?, ?), (?, ?), (?, ?), (?, ?), (?, ?), (?, ?)
INSERT INTO bids (id, item_id, user_id, bid, max_bid, qty, bid_date) VALUES (?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?)
INSERT INTO bids (id, item_id, user_id, bid, max_bid, qty, bid_date) VALUES (?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?)
INSERT INTO bids (id, item_id, user_id, bid, max_bid, qty, bid_date) VALUES (?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?)
INSERT INTO bids (item_id, user_id, bid, max_bid, qty, bid_date) VALUES (?, ?, ?, ?, 1, 12006)
INSERT INTO bids (item_id, user_id, bid, max_bid, qty, bid_date) VALUES (1, 1, 55, 60, 1, 12006)
INSERT INTO bids (item_id, user_id, bid, max_bid, qty, bid_date) VALUES (?, ?, ?, ?, ?, ?)
INSERT INTO bids (item_id, user_id, bid, max_bid, qty, bid_date) VALUES (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?)
INSERT INTO bids (item_id, user_id, bid, max_bid, qty, bid_date) VALUES (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?)
INSERT INTO bids (item_id, user_id, bid, max_bid, qty, bid_date) VALUES (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?)
INSERT INTO buy_now (id, item_id, buyer_id, qty, bn_date) VALUES (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?)
INSERT INTO buy_now (id, item_id, buyer_id, qty, bn_date) VALUES (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?)
INSERT INTO buy_now (id, item_id, buyer_id, qty, bn_date) VALUES (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?)
INSERT INTO buy_now (id, item_id, buyer_id, qty, bn_date) VALUES (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?)
INSERT INTO buy_now (item_id, buyer_id, qty, bn_date) VALUES (?, ?, ?, 12005)
INSERT INTO buy_now (item_id, buyer_id, qty, bn_date) VALUES (?, ?, ?, ?)
INSERT INTO categories (id, name) VALUES (?, ?), (?, ?), (?, ?), (?, ?), (?, ?), (?, ?), (?, ?), (?, ?)
INSERT INTO categories (name) VALUES (?), (?), (?), (?), (?), (?), (?), (?)
INSERT INTO categories (name) VALUES (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?)
INSERT INTO comments (from_user, to_user, item_id, rating, comment) VALUES (?, ?, ?, ?, ?)
INSERT INTO comments (from_user, to_user, item_id, rating, comment) VALUES (?, ?, ?, ?, ?), (?, ?, ?, ?, ?)
INSERT INTO comments (from_user, to_user, item_id, rating, comment) VALUES (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?)
INSERT INTO comments (from_user, to_user, item_id, rating, comment) VALUES (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?)
INSERT INTO comments (id, from_user, to_user, item_id, rating, comment) VALUES (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?)
INSERT INTO comments (id, from_user, to_user, item_id, rating, comment) VALUES (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?)
INSERT INTO comments (id, from_user, to_user, item_id, rating, comment) VALUES (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?)
INSERT INTO countries (name) VALUES (?), (?), (?), (?), (?), (?), (?), (?), (?), (?)
INSERT INTO countries (name) VALUES (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?), (?)
INSERT INTO credit_info (order_id, cc_type, cc_number, cc_expiry, auth_id) VALUES (?, ?, ?, ?, ?)
INSERT INTO credit_info (order_id, cc_type, cc_number, cc_expiry, auth_id) VALUES (?, ?, ?, ?, ?), (?, ?, ?, ?, ?)
INSERT INTO credit_info (order_id, cc_type, cc_number, cc_expiry, auth_id) VALUES (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?)
INSERT INTO credit_info (order_id, cc_type, cc_number, cc_expiry, auth_id) VALUES (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?), (?, ?, ?, ?, ?)
INSERT INTO customers (uname, passwd, fname, lname, addr_id, phone, email, discount) VALUES (?, ?, ?, ?, ?, ?, ?, ?)
INSERT INTO customers (uname, passwd, fname, lname, addr_id, phone, email, discount) VALUES (?, ?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?, ?)
INSERT INTO ids (name, value) VALUES ('item', ?)
INSERT INTO ids (name, value) VALUES (?, ?)
INSERT INTO items (id, name, description, seller_id, category_id, region_id, init_price, reserve, buy_now, nb_bids, max_bid, start_date, end_date) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
INSERT INTO items (name, description, seller_id, category_id, region_id, init_price, reserve, buy_now, nb_bids, max_bid, start_date, end_date) VALUES (?, ?, ?, ?, ?, ?, ?, ?, 0, ?, 12000, 12007)
INSERT INTO items (name, description, seller_id, category_id, region_id, init_price, reserve, buy_now, nb_bids, max_bid, start_date, end_date) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
INSERT INTO old_items (id, name, seller_id, category_id, region_id, max_bid, end_date) VALUES (?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?)
INSERT INTO order_line (order_id, item_id, qty, discount) VALUES (?, ?, ?, ?)
INSERT INTO order_line (order_id, item_id, qty, discount) VALUES (?, ?, ?, ?), (?, ?, ?, ?)
INSERT INTO order_line (order_id, item_id, qty, discount) VALUES (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?)
INSERT INTO order_line (order_id, item_id, qty, discount) VALUES (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?)
INSERT INTO order_line (order_id, item_id, qty, discount) VALUES (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?)
INSERT INTO orders (customer_id, o_date, subtotal, total, status) VALUES (?, ?, ?, ?, ?)
INSERT INTO regions (id, name) VALUES (?, ?), (?, ?), (?, ?), (?, ?), (?, ?), (?, ?)
INSERT INTO regions (name) VALUES (?), (?), (?), (?), (?), (?)
INSERT INTO t (v) VALUES (?)
INSERT INTO users (fname, lname, nickname, password, region_id, rating, balance, creation) VALUES (?, ?, ?, ?, ?, 0, 0, 12000)
INSERT INTO users (fname, lname, nickname, password, region_id, rating, balance, creation) VALUES (?, ?, ?, ?, ?, ?, ?, ?)
INSERT INTO users (id, fname, lname, nickname, password, region_id, rating, balance, creation) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?, ?, ?)
INSERT INTO users (id, fname, lname, nickname, password, region_id, rating, balance, creation) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?, ?, ?)
INSERT INTO users (id, fname, lname, nickname, password, region_id, rating, balance, creation) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?, ?, ?, ?)
SELECT * FROM address
SELECT * FROM authors
SELECT * FROM bids
SELECT * FROM buy_now
SELECT * FROM categories
SELECT * FROM comments
SELECT * FROM countries
SELECT * FROM credit_info
SELECT * FROM customers
SELECT * FROM ids
SELECT * FROM items
SELECT * FROM old_items
SELECT * FROM order_line
SELECT * FROM orders
SELECT * FROM regions
SELECT * FROM users
SELECT COUNT(*) FROM address
SELECT COUNT(*) FROM bids
SELECT COUNT(*) FROM bids WHERE item_id = ?
SELECT COUNT(*) FROM buy_now
SELECT COUNT(*) FROM comments
SELECT COUNT(*) FROM credit_info
SELECT COUNT(*) FROM customers
SELECT COUNT(*) FROM items
SELECT COUNT(*) FROM order_line
SELECT COUNT(*) FROM orders
SELECT COUNT(*) FROM users
SELECT b.bid, b.bid_date, u.nickname FROM bids b JOIN users u ON u.id = b.user_id WHERE b.item_id = ? ORDER BY b.bid DESC LIMIT 20
SELECT b.bid, i.name , b.id FROM bids b JOIN items i ON i.id = b.item_id WHERE b.user_id = ? ORDER BY b.id DESC LIMIT 10
SELECT b.bid, i.name FROM bids b JOIN items i ON i.id = b.item_id WHERE b.user_id = ? ORDER BY b.id DESC LIMIT 10
SELECT balance FROM users WHERE id = ?
SELECT buy_now FROM items WHERE id = ?
SELECT c.fname, c.lname, a.street, a.city FROM customers c JOIN address a ON a.id = c.addr_id WHERE c.id = ?
SELECT c.rating, c.comment, u.nickname FROM comments c JOIN users u ON u.id = c.from_user WHERE c.to_user = ? ORDER BY c.id DESC LIMIT 10
SELECT cost FROM items WHERE id = ?
SELECT customer_id, o_date, subtotal, total, status FROM orders
SELECT discount FROM customers WHERE id = ?
SELECT fname, lname FROM customers WHERE id = ?
SELECT from_user, to_user, item_id, rating, comment FROM comments
SELECT i.id, i.title, a.lname, i.cost FROM items i JOIN authors a ON a.id = i.author_id WHERE i.id = ?
SELECT i.id, i.title, a.lname, i.cost FROM items i JOIN authors a ON a.id = i.author_id WHERE a.lname LIKE ? ORDER BY i.title LIMIT 50
SELECT i.id, i.title, a.lname, i.cost FROM items i JOIN authors a ON a.id = i.author_id WHERE i.subject = ? ORDER BY i.title LIMIT 50
SELECT i.id, i.title, a.lname, i.cost FROM items i JOIN authors a ON a.id = i.author_id WHERE i.title LIKE ? ORDER BY i.title LIMIT 50
SELECT i.id, i.title, a.lname, i.cost FROM items i JOIN authors a ON a.id = i.author_id WHERE i.subject = ? ORDER BY i.pub_date DESC LIMIT 50
SELECT i.id, i.title, a.lname, i.cost FROM items i JOIN authors a ON a.id = i.author_id WHERE i.subject = ? ORDER BY i.total_sold DESC LIMIT 5
SELECT i.id, i.title, a.lname, i.cost, i.subject, i.descr, i.pub_date, i.stock FROM items i JOIN authors a ON a.id = i.author_id WHERE i.id = ?
SELECT i.name, i.description, i.max_bid, i.nb_bids, i.buy_now, u.nickname FROM items i JOIN users u ON u.id = i.seller_id WHERE i.id = ?
SELECT id , end_date FROM items WHERE category_id = ? ORDER BY end_date LIMIT 20
SELECT id , end_date FROM items WHERE region_id = ? AND category_id = ? ORDER BY end_date LIMIT 20
SELECT id FROM bids
SELECT id FROM bids ORDER BY id DESC LIMIT 1
SELECT id FROM bids WHERE item_id = ? ORDER BY bid DESC LIMIT 20
SELECT id FROM bids WHERE user_id = ? ORDER BY id DESC LIMIT 10
SELECT id FROM buy_now WHERE buyer_id = ? LIMIT 10
SELECT id FROM comments WHERE to_user = ? ORDER BY id DESC LIMIT 10
SELECT id FROM customers WHERE id = 1
SELECT id FROM items WHERE category_id = ? ORDER BY end_date LIMIT 20
SELECT id FROM items WHERE region_id = ? AND category_id = ? ORDER BY end_date LIMIT 20
SELECT id FROM items WHERE seller_id = ? LIMIT 10
SELECT id FROM items WHERE subject = ? ORDER BY pub_date DESC LIMIT 50
SELECT id FROM items WHERE subject = ? ORDER BY title LIMIT 50
SELECT id FROM items WHERE subject = ? ORDER BY total_sold DESC LIMIT 5
SELECT id FROM order_line WHERE order_id = ?
SELECT id FROM orders WHERE customer_id = ? ORDER BY id DESC LIMIT 1
SELECT id FROM users WHERE nickname = ?
SELECT id, customer_id, o_date, subtotal, total, status FROM orders WHERE id = ?
SELECT id, fname, lname FROM authors WHERE id = ?
SELECT id, fname, lname, nickname, password, region_id, rating, balance, creation FROM users WHERE id = ?
SELECT id, from_user, to_user, item_id, rating, comment FROM comments WHERE id = ?
SELECT id, item_id, user_id, bid, max_bid, qty, bid_date FROM bids WHERE id = ?
SELECT id, name FROM categories ORDER BY id
SELECT id, name FROM regions ORDER BY id
SELECT id, name, description, seller_id, category_id, region_id, init_price, reserve, buy_now, nb_bids, max_bid, start_date, end_date FROM items WHERE id = ?
SELECT id, name, max_bid, nb_bids, end_date FROM items WHERE region_id = ? AND category_id = ? ORDER BY end_date LIMIT 20
SELECT id, name, max_bid, nb_bids, end_date FROM items WHERE category_id = ? ORDER BY end_date LIMIT 20
SELECT id, name, max_bid, nb_bids, end_date FROM items WHERE seller_id = ? LIMIT 10
SELECT id, nb_bids FROM items
SELECT id, o_date, total, status FROM orders WHERE customer_id = ? ORDER BY id DESC LIMIT 1
SELECT id, order_id, item_id, qty, discount FROM order_line WHERE id = ?
SELECT id, password FROM users WHERE nickname = ?
SELECT id, street, city, country_id FROM address WHERE id = ?
SELECT id, title, author_id, pub_date, subject, descr, cost, stock, total_sold FROM items WHERE id = ?
SELECT id, uname, passwd, fname, lname, addr_id, phone, email, discount FROM customers WHERE id = ?
SELECT item_id, buyer_id, qty, bn_date FROM buy_now
SELECT item_id, qty FROM buy_now WHERE buyer_id = ? LIMIT 10
SELECT item_id, user_id, bid, max_bid, qty, bid_date FROM bids
SELECT max_bid FROM items WHERE id = 2
SELECT max_bid FROM items WHERE id = ?
SELECT nb_bids FROM items WHERE id = 1
SELECT nickname, rating FROM users WHERE id = ?
SELECT nickname, rating, creation FROM users WHERE id = ?
SELECT o.customer_id, o.o_date, c.cc_type, c.cc_number, c.cc_expiry, c.auth_id FROM credit_info c JOIN orders o ON o.id = c.order_id
SELECT o.customer_id, o.o_date, l.item_id, l.qty, l.discount FROM order_line l JOIN orders o ON o.id = l.order_id
SELECT ol.item_id, i.title, ol.qty FROM order_line ol JOIN items i ON i.id = ol.item_id WHERE ol.order_id = ?
SELECT uname FROM customers WHERE id = ?
SHOW TABLE STATUS
UPDATE items SET cost = ? WHERE id = ?
UPDATE items SET cost = ?, pub_date = ? WHERE id = ?
UPDATE items SET end_date = 12005 WHERE id = ?
UPDATE items SET end_date = ? WHERE id = ?
UPDATE items SET max_bid = 11 WHERE id = 1
UPDATE items SET max_bid = ? WHERE id = 1
UPDATE items SET max_bid = ? WHERE id = ?
UPDATE items SET nb_bids = ? WHERE id = ?
UPDATE items SET nb_bids = nb_bids + 1 WHERE id = ?
UPDATE items SET nb_bids = nb_bids + 1, max_bid = 55 WHERE id = 1
UPDATE items SET nb_bids = nb_bids + 1, max_bid = ? WHERE id = ?
UPDATE items SET pub_date = ? WHERE id = ?
UPDATE items SET stock = ? WHERE id = ?
UPDATE items SET stock = stock + 1 WHERE id = ?
UPDATE items SET stock = stock - ?, total_sold = total_sold + ? WHERE id = ?
UPDATE items SET total_sold = ? WHERE id = ?
UPDATE users SET rating = ? WHERE id = ?
UPDATE users SET rating = rating + ? WHERE id = ?
